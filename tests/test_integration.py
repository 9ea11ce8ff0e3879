"""End-to-end integration tests reproducing the paper's key behaviours."""

import numpy as np
import pytest

from repro.core.client import INTERNET, WIRELESS
from repro.harness import (
    Experiment,
    FlowSpec,
    Scenario,
    jain_index,
    run_flow,
)
from repro.phy.carrier import CarrierConfig
from repro.traces.mobility import paper_trajectory


def _scenario(**kw):
    defaults = dict(
        name="it",
        carriers=[CarrierConfig(0, 10.0), CarrierConfig(1, 5.0)],
        aggregated_cells=2, mean_sinr_db=15.0, fading_std_db=0.5,
        busy=False, duration_s=3.0, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


@pytest.mark.parametrize("scheme", ["pbe", "bbr", "cubic", "verus",
                                    "sprout", "copa", "pcc", "vivace"])
def test_every_scheme_completes_a_flow(scheme):
    r = run_flow(_scenario(duration_s=2.0), scheme)
    assert r.summary.packets > 50
    assert r.summary.average_throughput_bps > 2e5
    assert r.summary.average_delay_ms > 0


def test_pbe_rides_at_capacity_with_low_delay():
    r = run_flow(_scenario(), "pbe")
    # 10+5 MHz at 15 dB SINR carries roughly 50-60 Mbit/s.
    assert r.summary.average_throughput_mbps > 35.0
    # One-way floor is ~20 ms wired + ~2 ms wireless; PBE should sit
    # within the two-HARQ-cycle margin of it.
    assert r.summary.average_delay_ms < 45.0
    assert r.state_fractions[WIRELESS] > 0.9


def test_pbe_beats_bbr_delay_at_similar_throughput():
    s = _scenario(duration_s=4.0)
    pbe = run_flow(s, "pbe")
    bbr = run_flow(s, "bbr")
    assert pbe.summary.average_throughput_bps > \
        0.9 * bbr.summary.average_throughput_bps
    assert pbe.summary.p95_delay_ms < bbr.summary.p95_delay_ms


def test_cubic_bufferbloats():
    s = _scenario(duration_s=3.0)
    cubic = run_flow(s, "cubic")
    pbe = run_flow(s, "pbe")
    assert cubic.summary.p95_delay_ms > 2 * pbe.summary.p95_delay_ms


def test_internet_bottleneck_detected_and_matched():
    s = _scenario(internet_rate_bps=10e6, internet_queue_packets=200,
                  duration_s=4.0)
    r = run_flow(s, "pbe")
    assert r.state_fractions[INTERNET] > 0.5
    assert r.summary.average_throughput_mbps == pytest.approx(9.3,
                                                              abs=1.2)
    # Queue bounded by BBR-style operation: delay stays sane.
    assert r.summary.p95_delay_ms < 150.0


def test_wireless_bottleneck_stays_wireless():
    r = run_flow(_scenario(), "pbe")
    assert r.state_fractions[INTERNET] < 0.1


def test_two_pbe_flows_share_fairly():
    exp = Experiment(_scenario(duration_s=3.0))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=101))
    results = exp.run()
    tputs = [r.summary.average_throughput_bps for r in results]
    assert jain_index(tputs) > 0.95


def test_pbe_shares_with_cubic():
    exp = Experiment(_scenario(duration_s=3.0))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100))
    exp.add_flow(FlowSpec(scheme="cubic", rnti=101))
    results = exp.run()
    tputs = {r.spec.scheme: r.summary.average_throughput_bps
             for r in results}
    # The base station's per-user fairness keeps CUBIC from starving
    # PBE (§6.4.3) — each gets a substantial share.
    assert tputs["pbe"] > 0.25 * tputs["cubic"]
    assert tputs["cubic"] > 0.25 * tputs["pbe"]


def test_carrier_aggregation_triggered_by_demand():
    s = _scenario()
    aggressive = run_flow(s, "pbe")
    conservative = run_flow(s, "sprout")
    assert aggressive.ca_activations >= 1
    assert conservative.ca_activations == 0


def test_mobility_tracked_without_delay_blowup():
    s = _scenario(duration_s=6.0)
    channel = paper_trajectory(seed=2)
    r = run_flow(s, "pbe", spec_overrides={"channel": channel})
    assert r.summary.average_throughput_mbps > 20.0
    assert r.summary.p95_delay_ms < 60.0


def test_competition_forces_rate_down_then_recovers():
    s = _scenario(duration_s=6.0, aggregated_cells=1)
    exp = Experiment(s)
    pbe = exp.add_flow(FlowSpec(scheme="pbe", rnti=100))
    # A controlled competitor active during the middle two seconds.
    exp.add_flow(FlowSpec(scheme="cbr", rnti=101, start_s=2.0,
                          duration_s=2.0, cc_kwargs={"rate_bps": 30e6}))
    results = exp.run()
    stats = results[0].stats
    arr = np.asarray(stats.arrival_us)
    bits = np.asarray(stats.size_bits)

    def rate(lo_s, hi_s):
        mask = (arr >= lo_s * 1e6) & (arr < hi_s * 1e6)
        return bits[mask].sum() / (hi_s - lo_s)

    # The open-loop competitor overdrives its share, so its
    # base-station queue keeps draining for over a second after it
    # stops sending; measure recovery after that.
    before, during, after = rate(1, 2), rate(2.5, 4), rate(5.4, 6)
    assert during < 0.8 * before     # yielded to the competitor
    assert after > 0.9 * before      # grabbed the capacity back
    # And delay never exploded while yielding.
    assert results[0].summary.p95_delay_ms < 80.0


def test_monitor_of_a_quiet_client_keeps_decoding_and_stays_current():
    """The monitor folds every subframe as it is decoded, ACK clock or
    not: once the sender has stopped, nothing reads a report any more,
    yet the decoders' counters and ``last_subframe`` must keep up with
    the network (they used to sit in a buffer, one row per cell per
    millisecond, until some property happened to drain it)."""
    exp = Experiment(_scenario(duration_s=0.6))
    handle = exp.add_flow(FlowSpec(scheme="pbe", duration_s=0.3))
    exp.sim.run(until_us=300_500)
    assert not handle.sender.running
    exp.sim.run(until_us=600_500)     # 300 more subframes, nobody asks
    network, monitor = exp.network, handle.monitor
    assert network.subframe == 601
    assert len(monitor.decoders) == 2
    for decoder in monitor.decoders.values():
        assert decoder.subframes_decoded == network.subframe
    # Looked at in the raw, so no property gets a chance to catch up.
    assert vars(monitor)["last_subframe"] == network.subframe - 1
    for estimator in monitor.estimators.values():
        assert estimator._count == network.subframe
    assert monitor._pending == 0      # every subframe closed itself
