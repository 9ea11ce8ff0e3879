"""Docs cannot point at code or claims that are gone.

Every backticked repository path in README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md — a token with a ``/`` or a ``:line`` /
``:a-b`` suffix, ending in a file extension — must name a file, tried
from the repository root and then from ``src/repro/``, and a line
reference must lie inside that file.  Every backticked dotted name ``repro.<module>[.<attr>…]`` must
resolve, a call's arguments aside: the longest prefix that is a module
imports, and the rest are attributes of it.  Every backticked claim id
in EXPERIMENTS.md's hand-written text — ``*`` and ``{a,b}`` patterns
included — must name a claim of the registry.  Every double-quoted
section title cited right after the name of the design record (``…md,
"Title"`` or ``…md "A" and "B"``, a citation broken across lines or
comment lines included) in ``src/``, ``tests/``, ``scripts/``, README.md,
EXPERIMENTS.md and docs/*.md must be one of its ``## `` headings.
ROADMAP.md is left out: it names files and code that are only planned.
"""

from __future__ import annotations

import fnmatch
import importlib
import re
from pathlib import Path

import pytest

from repro.harness import claims

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
DOCS = [ROOT / "README.md", DESIGN, ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
BASES = (ROOT, ROOT / "src" / "repro")

_TICKED = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"([\w.-]+(?:/[\w.-]+)*"
                   r"\.(?:py|md|json|toml|yml|yaml|txt|cfg|sh|ini))"
                   r"(?::(\d+)(?:-(\d+))?)?")
_DOTTED = re.compile(r"(repro(?:\.\w+)+)(?:\(.*\))?")
_CLAIM = re.compile(r"(?:table\d+|fig\d\w*|ablation|policy)(?:\.[\w*{},]+)+")
_BRACES = re.compile(r"\{([^{}]*)\}")
_CITED = re.compile(r'DESIGN\.md`?(?:\'s)?,?\s+'
                    r'((?:"[^"]+"(?:,?\s*(?:and\s+)?))+)')
_QUOTED = re.compile(r'"([^"]+)"')
_LINE_BREAK = re.compile(r"[ \t]*\n[ \t]*(?:#:?[ \t]*)?")
CITING = sorted([*(ROOT / "src").rglob("*.py"),
                 *(ROOT / "tests").rglob("*.py"),
                 *(ROOT / "scripts").rglob("*.py"), ROOT / "README.md",
                 ROOT / "EXPERIMENTS.md", *(ROOT / "docs").glob("*.md")])


def references(text):
    """``(doc line, path, last referenced line or None)`` per reference."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for ticked in _TICKED.finditer(line):
            match = _PATH.fullmatch(ticked.group(1).strip())
            if match is None:
                continue
            path, first, last = match.groups()
            if "/" in path or first:
                yield lineno, path, int(last or first) if first else None


def broken(text):
    """One message per reference that names no file or a line past it."""
    out = []
    for lineno, path, last in references(text):
        target = next((base / path for base in BASES
                       if (base / path).is_file()), None)
        if target is None:
            out.append(f"line {lineno}: {path} does not exist")
        elif last is not None:
            length = len(target.read_text().splitlines())
            if last > length:
                out.append(f"line {lineno}: {path}:{last} is past its "
                           f"{length} lines")
    return out


def dotted_names(text):
    """``(doc line, name)`` per backticked ``repro.…`` dotted name."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for ticked in _TICKED.finditer(line):
            match = _DOTTED.fullmatch(ticked.group(1).strip())
            if match is not None:
                yield lineno, match.group(1)


def resolves(name):
    """Import the longest module prefix of ``name``, then walk the rest
    as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not f"{module}.".startswith(f"{exc.name}."):
                raise  # the module exists but lacks a dependency
            continue
        break
    for attr in parts[cut:]:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def unresolved(text):
    """One message per dotted name that names nothing."""
    return [f"line {lineno}: {name} does not resolve"
            for lineno, name in dotted_names(text) if not resolves(name)]


def claim_patterns(text):
    """``(doc line, pattern)`` per backticked claim id or id pattern."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for ticked in _TICKED.finditer(line):
            token = ticked.group(1).strip()
            if _CLAIM.fullmatch(token):
                yield lineno, token


def expand(pattern):
    """``pattern`` with its first ``{a,b}`` group expanded, recursively."""
    match = _BRACES.search(pattern)
    if match is None:
        return [pattern]
    return [name for option in match.group(1).split(",")
            for name in expand(pattern[:match.start()] + option
                               + pattern[match.end():])]


def unknown_claims(text, ids):
    """One message per claim pattern of which some expansion names no
    claim in ``ids``."""
    return [f"line {lineno}: {pattern} names no claim"
            for lineno, pattern in claim_patterns(text)
            if not all(fnmatch.filter(ids, name)
                       for name in expand(pattern))]


def hand_written(text):
    """``text`` without its generated ``<!-- claims:… -->`` blocks."""
    for name in claims.BLOCKS["EXPERIMENTS.md"]:
        text = text.replace(claims.generated(text, name), "")
    return text


def cited_sections(text):
    """``(line, title)`` per double-quoted title cited after the design
    record's name.  What follows the name has its line breaks — and a
    comment's ``#`` / ``#:`` on the next line — joined first, so a
    citation split across lines is read whole."""
    for name in re.finditer(r"DESIGN\.md", text):
        line = text.count("\n", 0, name.start()) + 1
        rest = _LINE_BREAK.sub(" ", text[name.start():name.start() + 400])
        match = _CITED.match(rest)
        if match is not None:
            for title in _QUOTED.findall(match.group(1)):
                yield line, title


def headings(text):
    """The ``## `` section titles of a markdown text."""
    return {line[3:].strip() for line in text.splitlines()
            if line.startswith("## ")}


def missing_sections(text, titles):
    """One message per cited title that is not in ``titles``."""
    return [f"line {line}: \"{title}\" is not a section"
            for line, title in cited_sections(text) if title not in titles]


def test_cited_design_sections_exist():
    titles = headings(DESIGN.read_text())
    found = [f"{path.relative_to(ROOT)} {message}" for path in CITING
             for message in missing_sections(path.read_text(), titles)]
    assert found == []


def test_the_section_scan_joins_lines_and_catches_breakage():
    name = "DESIGN" + ".md"  # keeps this sample out of the scan above
    text = (f'see {name}, "Kept"\n'
            f'x ({name} "Kept" and "Split\n'
            f'    # across lines"), and {name}\'s "Gone".\n'
            f'{name} lists it; "quoted" elsewhere is no citation.\n'
            f'#: {name}, "Also\n#: gone", "Kept"\n')
    assert list(cited_sections(text)) == [
        (1, "Kept"), (2, "Kept"), (2, "Split across lines"), (3, "Gone"),
        (5, "Also gone"), (5, "Kept")]
    assert missing_sections(text, {"Kept", "Split across lines"}) == [
        'line 3: "Gone" is not a section',
        'line 5: "Also gone" is not a section']


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
def test_doc_references_resolve(doc):
    text = doc.read_text()
    assert broken(text) + unresolved(text) == []


def test_the_scan_sees_references_and_catches_breakage():
    text = ("`baselines/bbr.py` `core/sender.py:1-2` `README.md:1` "
            "`quickstart.py` `exec/journal.py` `src/repro/cli.py:999999`")
    found = list(references(text))
    assert [path for _, path, _ in found] == [
        "baselines/bbr.py", "core/sender.py", "README.md",
        "exec/journal.py", "src/repro/cli.py"]
    assert [message.split(": ")[1].split()[0] for message in broken(text)
            ] == ["exec/journal.py", "src/repro/cli.py:999999"]


def test_the_dotted_scan_resolves_modules_and_attributes():
    text = ("`repro.monitor` `repro.exec.store.seal` `repro.net.Tap` "
            "`repro.monitor.NoSuchClass` `repro.no_such_module` "
            "`repro.cli.main()` `repro.baselines.Bbr.on_ack.missing`")
    assert [name for _, name in dotted_names(text)] == [
        "repro.monitor", "repro.exec.store.seal", "repro.net.Tap",
        "repro.monitor.NoSuchClass", "repro.no_such_module",
        "repro.cli.main", "repro.baselines.Bbr.on_ack.missing"]
    assert [message.split(": ")[1].split()[0] for message in unresolved(text)
            ] == ["repro.monitor.NoSuchClass", "repro.no_such_module",
                  "repro.baselines.Bbr.on_ack.missing"]


def test_experiments_cites_only_registry_claims():
    text = hand_written((ROOT / "EXPERIMENTS.md").read_text())
    ids = [claim.id for _, claim in claims.claims()]
    assert len(list(claim_patterns(text))) > 0
    assert unknown_claims(text, ids) == []


def test_the_claim_scan_expands_patterns_and_catches_breakage():
    ids = ["fig16.bbr.p95_ratio", "fig16.copa.tput_ratio",
           "fig16.vivace.tput_ratio", "table1.bbr.busy.tput_speedup"]
    text = ("`fig16.bbr.*` `fig16.{copa,vivace}.tput_ratio` "
            "`table1.bbr.busy.tput_speedup` `fig16.{copa,sprout}.tput_ratio` "
            "`fig99.pbe.dip` `net.uplink` `repro.harness.claims`")
    assert [pattern for _, pattern in claim_patterns(text)] == [
        "fig16.bbr.*", "fig16.{copa,vivace}.tput_ratio",
        "table1.bbr.busy.tput_speedup", "fig16.{copa,sprout}.tput_ratio",
        "fig99.pbe.dip"]
    assert [message.split(": ")[1].split()[0]
            for message in unknown_claims(text, ids)] == [
        "fig16.{copa,sprout}.tput_ratio", "fig99.pbe.dip"]
