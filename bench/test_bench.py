"""Tests of the benchmark itself (``python -m pytest bench -q``).

Not part of the tier-1 ``testpaths``: the smoke runs below take about
a minute.
"""

from __future__ import annotations

import json
import re

import pytest

import compare
import metrics
import run
from trace import SPAN_NAMES, Tracer, self_times
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_arithmetic_on_a_synthetic_tree():
    # a[0..10] { b[1..4] { c[2..3] }  b[5..7] }   a[20..21]
    ids = [0, 1, 2, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 7.0, 21.0]
    parents = [-1, 0, 1, 0, -1]
    self_s, calls = self_times(ids, starts, ends, parents, n_names=4)
    assert list(self_s) == [10 - 3 - 2 + 1, (3 - 1) + 2, 1, 0]
    assert list(calls) == [2, 2, 1, 0]
    # Self times partition the root spans' durations.
    assert sum(self_s) == 10 + 1


def test_tracer_records_nesting_and_drains():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "net.link")
    outer = tracer.wrap(lambda: (inner(), inner()), "net.sim.loop")
    outer()
    totals = tracer.drain()
    assert totals["net.sim.loop"][1] == 1 and totals["net.link"][1] == 2
    assert all(self_s >= 0 for self_s, _ in totals.values())
    assert set(tracer.drain().values()) == {(0.0, 0)}  # forgotten


def test_tracer_uninstall_restores_every_attribute():
    from repro.cell import basestation
    from repro.net.sim import Simulator
    from repro.phy.harq import ReorderingBuffer
    watched = [(Simulator, "schedule"), (Simulator, "run"),
               (ReorderingBuffer, "insert"), (basestation, "allocate_prbs")]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = Tracer()
    tracer.install()
    assert all(vars(owner)[attr] is not original
               for (owner, attr), original in zip(watched, before))
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert tracer.missing == []


def test_names_and_units_fit_the_contract():
    names = [name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(unit) for unit in metrics.UNITS.values())
    assert len(SPAN_NAMES) == 29
    assert len(metrics.PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())


def test_manifest_matches_benchmark_json():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest(WORKLOADS)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(b for *_, b in metrics.END_TO_END)}]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_checks_at_smoke_length(name):
    doc = run.run_one(name, seed=1, seconds=1, trace=0)
    assert doc["failures"] == [] and doc["correct"]
    assert doc["attempted"] >= doc["repetitions"] == 3
    assert set(doc["metrics"]) == {n for n, *_ in metrics.END_TO_END}
    assert all(entry["value"] > 0 for entry in doc["metrics"].values())
    assert not run.WORKDIR.exists()


def test_traced_pass_reports_every_layer_metric_and_equal_digests():
    doc = run.run_one("mixed_cell", seed=1, seconds=1, trace=1)
    # A traced digest that differs from the untraced one is a failure.
    assert doc["failures"] == [] and doc["correct"]
    values = {name: entry["value"] for name, entry in doc["metrics"].items()}
    assert set(values) == {n for n, *_ in metrics.PER_LAYER}
    for span in ("cell.tick", "net.link", "baselines.cc.cubic",
                 "baselines.cc.copa", "faults.decoder", "faults.pipe"):
        assert values[f"{span}.calls_per_sim_s"] > 0
        assert values[f"{span}.share"] > 0
    assert values["exec.job_wall_s"] == 0
    assert 0 < sum(v for n, v in values.items()
                   if n.endswith(".share")) <= 1


def test_seed_changes_the_digest_and_reproduces_it():
    workload = WORKLOADS["idle_3cc"]
    digest = {seed: run.repetition(
        workload, run.sub_seed(workload.name, seed, 0)).digest
        for seed in (1, 2)}
    again = run.repetition(workload, run.sub_seed(workload.name, 1, 0))
    assert digest[1] == again.digest
    assert digest[1] != digest[2]
    assert run.sub_seed("idle_3cc", 1, 0) != run.sub_seed("idle_3cc", 1, 1)


def test_interquartile_mean_ignores_both_tails():
    assert run.interquartile_mean([1, 2, 3, 4, 5, 6, 7, 1000]) == 4.5
    assert run.interquartile_mean([5.0]) == 5.0


def test_compare_verdicts():
    a = [100.0 + i for i in range(10)]
    same = list(zip(a, a))
    assert compare.verdict(a, a, same, "lower", 0.1) \
        == "inside-noise (identical)"
    slower = [x * 1.2 for x in a]
    assert compare.verdict(a, slower, list(zip(a, slower)), "lower", 0.1) \
        == "moved (worse)"
    assert compare.verdict(a, slower, list(zip(a, slower)), "higher", 0.1) \
        == "moved (better)"
    jitter = [x + (0.5 if i % 2 else -0.5) for i, x in enumerate(a)]
    assert compare.verdict(a, jitter, list(zip(a, jitter)), "lower", 0.1) \
        == "inside-noise"
    wide = [50.0, 150.0] * 5
    other = [150.0, 50.0] * 5
    assert compare.verdict(wide, other, list(zip(wide, other)), "lower",
                           0.1) == "unresolved"
    # Too few pairs for the nine-tenths rule; the bound still applies.
    assert compare.verdict(a[:3], slower[:3],
                           list(zip(a[:3], slower[:3])), "lower", 0.1) \
        == "moved (worse, beyond bound)"
