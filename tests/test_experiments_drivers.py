"""Cheap-configuration tests for the experiment drivers.

These run each table/figure driver at reduced scale and check the
structure of the results plus the paper's qualitative shape where it
is already visible at small scale.  The benchmarks run the real
(bigger) versions.
"""

from dataclasses import replace

import pytest

from repro.exec import make_runner
from repro.harness import claims
from repro.harness.experiments import (
    run_ablation,
    run_fig02,
    run_fig06,
    run_fig08,
    run_fig11,
    run_fig13_14,
    run_fig16_17,
    run_fig18_19,
    run_fig20,
    run_fig21,
    run_stationary_sweep,
    table1_from_sweep,
)


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_stationary_sweep(schemes=("pbe", "bbr"), n_busy=1,
                                n_idle=1, duration_s=2.0)


def test_sweep_structure(tiny_sweep):
    assert len(tiny_sweep.entries) == 4
    assert set(tiny_sweep.schemes()) == {"pbe", "bbr"}
    assert len(tiny_sweep.locations()) == 2
    first = tiny_sweep.locations()[0]
    assert {e.scheme for e in tiny_sweep.entries
            if e.location == first} == {"pbe", "bbr"}


def test_sweep_validation():
    with pytest.raises(ValueError):
        run_stationary_sweep(n_busy=0, n_idle=0)


def test_sweep_index_tracks_appended_entries():
    # Pure-data check of SweepResult's location and scheme lists: dedup
    # is order-preserving and the lists follow later appends.
    from repro.harness.experiments import SweepEntry, SweepResult

    def entry(scheme, location):
        return SweepEntry(scheme=scheme, location=location, busy=True,
                          aggregated_cells=1, summary=None,
                          ca_activations=0, state_fractions=None)

    sweep = SweepResult(entries=[entry("pbe", "b"), entry("bbr", "b"),
                                 entry("pbe", "a")])
    assert sweep.locations() == ["b", "a"]
    assert sweep.schemes() == ["pbe", "bbr"]
    # mutating a returned list must not corrupt the next answer
    sweep.locations().clear()
    assert sweep.locations() == ["b", "a"]

    sweep.entries.append(entry("cubic", "c"))
    assert sweep.locations() == ["b", "a", "c"]
    assert sweep.schemes() == ["pbe", "bbr", "cubic"]
    assert replace(sweep.entries[0]) == sweep.entries[0]


def test_table1_reduction(tiny_sweep):
    result = table1_from_sweep(tiny_sweep, baselines=("bbr",))
    assert len(result.rows) == 2
    row = result.row("bbr", "busy")
    assert row.locations == 1
    assert row.throughput_speedup > 0


def test_table1_requires_pbe():
    sweep = run_stationary_sweep(schemes=("bbr",), n_busy=1, n_idle=0,
                                 duration_s=1.0)
    with pytest.raises(ValueError, match="pbe"):
        table1_from_sweep(sweep)


def test_fig12_reduction(tiny_sweep):
    # The fig12 claims reduce the sweep itself; a scheme the sweep did
    # not run measures nothing rather than NaN.
    fig12 = {c.id: c.measure(tiny_sweep)
             for c in claims.by_name("fig12").claims}
    assert fig12["fig12.bbr.median_tput_ratio"] > 0
    assert fig12["fig12.bbr.median_p95_ratio"] > 0
    assert fig12["fig12.cubic.median_tput_ratio"] is None
    assert fig12["fig12.verus.median_p95_ratio"] is None


def test_fig15_reduction(tiny_sweep):
    # Every tiny-sweep location has one carrier: no location is eligible
    # for carrier aggregation, so each share measures nothing (and does
    # not divide by zero).
    assert all(e.aggregated_cells == 1 for e in tiny_sweep.entries)
    fig15 = claims.by_name("fig15")
    assert [c.measure(tiny_sweep) for c in fig15.claims] == \
        [None] * len(fig15.claims)
    assert not any(c.holds(c.measure(tiny_sweep)) for c in fig15.claims)


def test_fig02_structure():
    result = run_fig02(duration_s=3.0)
    assert result.activation_s is not None
    assert len(result.timeline) == 30


def test_fig06_structure():
    result = run_fig06(load_fractions=(0.5,), tb_sizes_kbit=(20, 60),
                       duration_s=1.0, trials=500)
    assert len(result.overhead) == 2      # two SINRs x one load
    assert len(result.tbler) == 4         # two BERs x two sizes


def test_fig08_structure():
    result = run_fig08(loads_mbps=(6.0, 24.0), duration_s=1.5)
    assert len(result.series) == 2
    fractions = result.series[0]
    assert 0 <= fractions.one_retx_fraction + fractions.more_fraction <= 1


def test_fig11_structure():
    result = run_fig11()
    assert set(result.hourly_counts) == {"20MHz", "10MHz"}
    assert all(len(v) == 24 for v in result.hourly_counts.values())


def test_fig13_structure():
    result = run_fig13_14(schemes=("pbe", "bbr"),
                          location_keys=("fig13d_3cc_indoor_idle",),
                          duration_s=2.0)
    assert set(result.locations) == {"fig13d_3cc_indoor_idle"}
    summary = result.summary("fig13d_3cc_indoor_idle", "pbe")
    assert summary.average_throughput_bps > 0


def test_fig16_structure():
    result = run_fig16_17(schemes=("pbe",), timeline_schemes=("pbe",),
                          duration_s=8.0, interval_s=1.0)
    assert "pbe" in result.summaries
    timeline = result.timelines[0]
    assert len(timeline.throughput_mbps) == 8


def test_fig18_structure():
    result = run_fig18_19(schemes=("pbe",), duration_s=8.0)
    assert "pbe" in result.summaries
    on_tput, off_tput = result.on_off_split["pbe"]
    assert on_tput > 0 and off_tput > 0
    # Competitor on -> lower victim throughput.
    assert on_tput < off_tput


def test_fig20_structure():
    result = run_fig20(schemes=("pbe",), duration_s=3.0)
    a, b = result.pairs["pbe"]
    assert a.average_throughput_bps > 0
    assert 0 < result.balance("pbe") <= 1.0


def test_fig21_structure():
    result = run_fig21(time_scale=0.05, variants=("multi_user",))
    variant = result.variant("multi_user")
    assert variant.schemes == ("pbe", "pbe", "pbe")
    assert 0 < variant.jain_3 <= 1.0
    with pytest.raises(ValueError):
        run_fig21(time_scale=0)


def test_ablation_structure():
    result = run_ablation(variants=("paper", "bare_bdp_cwnd"),
                          duration_s=2.0)
    assert {r.variant for r in result.rows} == {"paper",
                                                "bare_bdp_cwnd"}
    assert result.row("paper").summary.average_throughput_bps > 0


def test_a_figure_whose_driver_raises_names_the_figure(monkeypatch):
    # A bad scheme raises make_cc's ValueError inside the driver; the
    # registry's pass fails naming the figure whose run raised.
    broken = replace(claims.by_name("fig13_14"), reduced={
        "schemes": ("warp-drive",), "duration_s": 0.5,
        "location_keys": ("fig13d_3cc_indoor_idle",)})
    with pytest.raises(ValueError, match="unknown scheme 'warp-drive'"):
        run_fig13_14(**broken.reduced)
    monkeypatch.setattr(claims, "FIGURES", tuple(
        broken if f.name == broken.name else f for f in claims.FIGURES))
    with pytest.raises(RuntimeError, match="figure fig13_14: .*warp-drive"):
        claims.Runs("reduced", make_runner()).run([broken])
