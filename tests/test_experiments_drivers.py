"""Cheap-configuration tests for the experiment drivers.

These run each table/figure driver at reduced scale and check the
structure of the results plus the paper's qualitative shape where it
is already visible at small scale.  The benchmarks run the real
(bigger) versions.
"""

import pytest

from repro.exec import make_runner
from repro.harness.experiments.ablation import VARIANTS
from repro.harness.experiments import (
    fig12_from_sweep,
    fig15_from_sweep,
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
    from dataclasses import replace

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
    assert "Table 1" in result.format()


def test_table1_requires_pbe():
    sweep = run_stationary_sweep(schemes=("bbr",), n_busy=1, n_idle=0,
                                 duration_s=1.0)
    with pytest.raises(ValueError, match="pbe"):
        table1_from_sweep(sweep)


def test_fig12_reduction(tiny_sweep):
    result = fig12_from_sweep(tiny_sweep, schemes=("pbe", "bbr"))
    assert set(result.throughput_mbps) == {"pbe", "bbr"}
    assert "Figure 12" in result.format()


def test_fig15_reduction(tiny_sweep):
    result = fig15_from_sweep(tiny_sweep)
    assert {r.scheme for r in result.rows} == {"pbe", "bbr"}
    assert "Figure 15" in result.format()


def test_fig02_structure():
    result = run_fig02(duration_s=3.0)
    assert result.activation_s is not None
    assert len(result.timeline) == 30
    assert "Figure 2" in result.format()


def test_fig06_structure():
    result = run_fig06(load_fractions=(0.5,), tb_sizes_kbit=(20, 60),
                       duration_s=1.0, trials=500)
    assert len(result.overhead) == 2      # two SINRs x one load
    assert len(result.tbler) == 4         # two BERs x two sizes
    assert "Figure 6" in result.format()


def test_fig08_structure():
    result = run_fig08(loads_mbps=(6.0, 24.0), duration_s=1.5)
    assert len(result.series) == 2
    fractions = result.series[0]
    total = (fractions.baseline_fraction + fractions.one_retx_fraction
             + fractions.more_fraction)
    assert total == pytest.approx(1.0)


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
    result = run_fig18_19(schemes=("pbe",), timeline_schemes=(),
                          duration_s=8.0)
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
    assert len(variant.prb_shares_3) == 3
    assert 0 < variant.jain_3 <= 1.0
    with pytest.raises(ValueError):
        run_fig21(time_scale=0)


def test_ablation_structure():
    result = run_ablation(variants=("paper", "no_linear_ramp"),
                          duration_s=2.0)
    assert {r.variant for r in result.rows} == {"paper",
                                                "no_linear_ramp"}
    assert result.row("paper").summary.average_throughput_bps > 0


def test_drivers_name_a_failed_job(monkeypatch):
    # Both read payloads by position: any runner's failure record must
    # surface as an error naming the job, not a TypeError on indexing.
    with pytest.raises(RuntimeError, match="warp-drive"):
        run_fig13_14(schemes=("warp-drive",),
                     location_keys=("fig13d_3cc_indoor_idle",),
                     duration_s=0.5, runner=make_runner())
    monkeypatch.setitem(VARIANTS, "warped",
                        {"cc_kwargs": {"warp_factor": 9}})
    with pytest.raises(RuntimeError, match="ablation-warped.*warp_factor"):
        run_ablation(variants=("warped",), duration_s=0.5,
                     runner=make_runner())
