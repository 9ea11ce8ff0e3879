"""The claims registry, its record and the blocks generated from it.

`repro.harness.claims` states each paper claim once; these checks keep
the registry well formed, and keep the committed `results/paper.json`
and the generated blocks of EXPERIMENTS.md and README.md in step with
it (a hand edit inside a block fails here).  They run no simulation.
"""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.harness import claims

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "results" / "paper.json"


def test_registry_is_well_formed():
    ids = [claim.id for _, claim in claims.claims()]
    assert len(ids) == len(set(ids))
    assert len({f.name for f in claims.FIGURES}) == len(claims.FIGURES)
    for figure in claims.FIGURES:
        assert figure.claims, figure.name
        for kwargs in (figure.reduced, figure.paper):
            inspect.signature(figure.driver).bind(**kwargs)
        for claim in figure.claims:
            assert claim.op in (*claims._OPS, "in"), claim.id


def test_every_xfail_names_an_open_roadmap_item():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    reasons = [c.xfail for _, c in claims.claims() if c.xfail]
    assert reasons
    for reason in reasons:
        item = re.match(r"ROADMAP item (\d+): ", reason)
        assert item, reason
        assert re.search(rf"^{item.group(1)}\. \*\*", roadmap, re.M), reason


def test_predicates():
    less = claims.Claim("x", "<", 1.0, float)
    inside = claims.Claim("y", "in", (0.0, 1.0), float)
    assert less.holds(0.5) and not less.holds(1.0)
    assert not less.holds(None)
    assert inside.holds(0.5) and not inside.holds(0.0)
    assert not inside.holds(1.0)


def test_record_matches_the_registry():
    data = claims.load_record(RECORD)
    assert data["scale"] == "paper"
    assert [e["id"] for e in data["claims"]] == \
        [c.id for _, c in claims.claims()]
    for entry, (figure, claim) in zip(data["claims"], claims.claims()):
        stated = (figure.name, claim.op,
                  json.loads(json.dumps(claim.bound)), claim.paper,
                  claim.xfail)
        assert (entry["figure"], entry["op"], entry["bound"],
                entry["paper"], entry["xfail"]) == stated, claim.id
        assert entry["holds"] == claim.holds(entry["measured"]), claim.id


@pytest.mark.parametrize("doc", sorted(claims.BLOCKS))
def test_generated_blocks_match_the_record(doc):
    data = claims.load_record(RECORD)
    text = (ROOT / doc).read_text()
    for name, render in claims.BLOCKS[doc].items():
        assert claims.generated(text, name) == render(data), \
            f"{doc}: block {name!r} differs from results/paper.json"


def test_loader_names_the_bad_field(tmp_path):
    good = json.loads(RECORD.read_text())
    path = tmp_path / "paper.json"

    def load(data):
        path.write_text(json.dumps(data))
        return claims.load_record(path)

    assert load(good)["schema"] == claims.SCHEMA
    with pytest.raises(ValueError, match="'schema'"):
        load({**good, "schema": claims.SCHEMA + 1})
    for key in ("code_id", "table1", "claims"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=repr(key)):
            load(broken)
    entry = {k: v for k, v in good["claims"][0].items()
             if k != "measured"}
    with pytest.raises(ValueError, match="'measured'"):
        load({**good, "claims": [entry, *good["claims"][1:]]})
