"""The claims registry, its record and the blocks generated from it.

`repro.harness.claims` states each paper claim once; these checks keep
the registry well formed, and keep the committed `results/paper.json`
and the generated blocks of EXPERIMENTS.md and README.md in step with
it (a hand edit inside a block fails here).  Hand-built sweeps hold
the Table 1 / Figure 12 / Figure 15 reducers and the verdict words of
`claim_line`.  They run no simulation.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import signal
from pathlib import Path

import pytest

from repro.cli import main
from repro.exec import Job, SweepInterrupted, make_runner
from repro.harness import claims
from repro.harness import experiments as exp
from repro.harness.experiments import SweepEntry, SweepResult
from repro.harness.metrics import FlowSummary
from repro.harness.serialize import summary_to_dict

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "results" / "paper.json"
FIELDS = ("schema", "scale", "commit", "code_id", "figures", "table1",
          "claims")
CLAIM_FIELDS = ("id", "figure", "paper", "measured", "op", "bound",
                "holds", "xfail")


def load_record(path) -> dict:
    """Read a record; a ``ValueError`` names the first field that is
    missing, or the schema version it does not know."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != claims.SCHEMA:
        raise ValueError(f"{path}: field 'schema' is "
                         f"{data.get('schema')!r}, not {claims.SCHEMA}")
    for where, entry, fields in [("record", data, FIELDS)] + [
            (f"claim {c.get('id')!r}", c, CLAIM_FIELDS)
            for c in data.get("claims", ())]:
        for key in fields:
            if key not in entry:
                raise ValueError(f"{path}: {where} lacks field {key!r}")
    return data


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


def test_an_unmeasured_claim_line_reads_a_dash_and_fails():
    claim = claims.Claim("fig12.x.median_tput_ratio", ">", 1.0, float)
    line = claims.claim_line({
        "id": claim.id, "measured": None, "op": claim.op,
        "bound": claim.bound, "holds": claim.holds(None), "xfail": None})
    assert line.split()[1] == "—"
    assert line.split()[-1] == "FAILS"
    assert "None" not in line


def _sweep(rows):
    """A hand-built sweep: one entry per ``(scheme, location, busy,
    tput Mbit/s, p95 ms, avg ms, carriers, CA activations)``."""
    return SweepResult([
        SweepEntry(scheme, location, busy, cells,
                   FlowSummary(scheme, tput * 1e6, {}, avg, avg, p95, {},
                               1), ca, None)
        for scheme, location, busy, tput, p95, avg, cells, ca in rows])


def _measure(name, sweep):
    return {c.id: c.measure(sweep) for c in claims.by_name(name).claims}


def test_fig12_and_fig15_reduce_the_sweep_itself():
    locations = (("a", True, 2), ("b", True, 1), ("c", False, 2),
                 ("d", False, 3))
    rows = []
    for scheme, tput, p95, ca_at in (
            ("pbe", (10, 20, 30, 40), (10, 20, 30, 40), "acd"),
            ("bbr", (5, 10, 15, 20), (20, 40, 60, 80), "acd"),
            ("cubic", (40, 30, 20, 10), (50, 100, 150, 200), "ac"),
            ("verus", (10, 20, 30, 40), (40, 40, 40, 40), "a"),
            ("copa", (1, 1, 1, 1), (10, 10, 10, 10), "a")):
        rows += [(scheme, loc, busy, t, d, d, cells, int(loc in ca_at))
                 for (loc, busy, cells), t, d in zip(locations, tput, p95)]
    sweep = _sweep(rows)
    fig12 = _measure("fig12", sweep)
    assert fig12["fig12.bbr.median_tput_ratio"] == 25 / 12.5
    assert fig12["fig12.cubic.median_tput_ratio"] == 1.0
    assert fig12["fig12.bbr.median_p95_ratio"] == 25 / 50
    assert fig12["fig12.verus.median_p95_ratio"] == 25 / 40
    fig15 = _measure("fig15", sweep)
    assert fig15 == {"fig15.pbe.ca_share": 1.0, "fig15.bbr.ca_share": 1.0,
                     "fig15.cubic.ca_share": 2 / 3,
                     "fig15.copa.ca_share": 1 / 3}
    # A scheme whose job failed at a location counts its own locations.
    del sweep.entries[-1]
    assert _measure("fig15", sweep)["fig15.copa.ca_share"] == 1 / 2


def _fake_flows(monkeypatch, row):
    """Run the registry's sweep on hand-built flows: ``row(scheme,
    busy)`` gives a flow's ``(tput Mbit/s, p95 ms, avg ms, CA
    activations)``.  The returned list collects the flows run."""
    flows = []

    def execute(job):
        flows.append(job)
        tput, p95, avg, ca = row(job.scheme, job.scenario.busy)
        return {"summary": summary_to_dict(FlowSummary(
                    job.scheme, tput * 1e6, {}, avg, avg, p95, {}, 1)),
                "ca_activations": ca, "state_fractions": None}
    monkeypatch.setattr(Job, "execute", execute)
    return flows


def test_one_pass_runs_the_shared_sweep_once(monkeypatch):
    flows = _fake_flows(monkeypatch, lambda scheme, busy: (10, 10, 10, 1))
    runner, passes = make_runner(), []
    monkeypatch.setattr(runner, "run",
                        lambda jobs, run=runner.run: passes.append(
                            len(jobs)) or run(jobs))
    runs = claims.Runs("reduced", runner)
    figures = [claims.by_name(n) for n in ("table1", "fig12", "fig15")]
    runs.run(figures)
    sweep = exp.sweep_jobs(**figures[0].reduced)
    # the three figures share one run: its flows are submitted once
    assert passes == [len(sweep)]
    assert [job.label for job in flows] == [job.label for job in sweep]
    assert runner.stats.total == len(sweep)
    assert runner.stats.executed == len(sweep)
    assert runner.stats.deduplicated == 0
    # the entries read the pass: nothing runs again
    assert [e["measured"] for e in claims.entries(runs, figures[2])] == \
        [1.0] * len(figures[2].claims)
    assert len(passes) == 1 and len(flows) == len(sweep)
    # Table 1's rows ship in the shape record() writes
    table1 = runs.payloads["table1"]["table1"]
    assert table1 and all(set(row) == set(load_record(RECORD)["table1"][0])
                          for row in table1)


def test_an_interrupt_stops_the_pass_at_the_first_run(monkeypatch):
    # Ctrl-C during an inline pass ends it once the running job is
    # done: the next figure never starts.
    ran = []

    def execute(run):
        ran.append(run.figure)
        os.kill(os.getpid(), signal.SIGINT)
        return {"measured": {}}
    monkeypatch.setattr(claims.Run, "execute", execute)
    runs = claims.Runs("reduced", make_runner())
    with pytest.raises(SweepInterrupted):
        runs.run([claims.by_name("fig02"), claims.by_name("fig05")])
    assert ran == ["fig02"] and not runs.payloads


def test_experiment_prints_known_misses_as_xfail(capsys, monkeypatch):
    flows = {"pbe": (10, 10, 10), "bbr": (10, 20, 20),
             "cubic": (10, 20, 20), "verus": (10, 30, 30)}
    _fake_flows(monkeypatch, lambda scheme, busy: (
        *flows.get(scheme, (5,) + (12 if busy else 8,) * 2), 0))
    assert main(["experiment", "table1"]) == 0
    verdicts = {line.split()[0]: line.split()[-1]
                for line in capsys.readouterr().out.splitlines()}
    assert len(verdicts) == len(claims.by_name("table1").claims)
    assert {i for i, v in verdicts.items() if v == "xfail"} == {
        "table1.copa.busy.tput_speedup", "table1.copa.idle.tput_speedup",
        "table1.copa.busy.p95_reduction"}
    assert {v for i, v in verdicts.items()
            if not i.startswith("table1.copa.")} == {"holds"}
    assert verdicts["table1.copa.idle.p95_reduction"] == "holds"


def test_record_matches_the_registry():
    data = load_record(RECORD)
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
    data = load_record(RECORD)
    text = (ROOT / doc).read_text()
    for name, render in claims.BLOCKS[doc].items():
        assert claims.generated(text, name) == render(data), \
            f"{doc}: block {name!r} differs from results/paper.json"


def test_loader_names_the_bad_field(tmp_path):
    good = json.loads(RECORD.read_text())
    path = tmp_path / "paper.json"

    def load(data):
        path.write_text(json.dumps(data))
        return load_record(path)

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
