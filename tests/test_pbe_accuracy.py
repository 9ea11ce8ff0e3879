"""Ground-truth accuracy of the PBE capacity estimate (Eqns. 3+5).

The monitor's whole point is millisecond-accurate capacity knowledge;
these tests compare its transport-capacity report against the true
achievable goodput of the simulated cell.
"""

import pytest

from repro.harness import Experiment, FlowSpec, Scenario
from repro.net import Tap
from repro.phy.carrier import CarrierConfig
from repro.phy.error import sinr_to_ber
from repro.phy.mcs import bits_per_prb, sinr_to_mcs


def _true_goodput_bps(prbs, sinr_db, streams=2):
    """Analytic ceiling: phys rate minus protocol and retx overhead."""
    from repro.cell.queues import PROTOCOL_OVERHEAD
    from repro.phy.error import block_error_rate
    mcs = sinr_to_mcs(sinr_db)
    phys = prbs * bits_per_prb(mcs, streams)          # bits/subframe
    payload = phys * (1 - PROTOCOL_OVERHEAD)
    tbler = block_error_rate(sinr_to_ber(sinr_db), phys)
    return payload / (1 + tbler) * 1_000              # bits/s


@pytest.mark.parametrize("sinr", [12.0, 17.0, 25.0])
def test_sole_user_estimate_matches_cell_capacity(sinr):
    scenario = Scenario(name="acc", carriers=[CarrierConfig(0, 20.0)],
                        aggregated_cells=1, mean_sinr_db=sinr,
                        fading_std_db=0.0, duration_s=3.0, seed=2)
    exp = Experiment(scenario)
    handle = exp.add_flow(FlowSpec(scheme="pbe"))
    exp.run()
    report = handle.monitor.report(rtprop_subframes=40)
    truth = _true_goodput_bps(100, sinr)
    assert report.transport_capacity_bps == pytest.approx(truth,
                                                          rel=0.08)


def test_estimate_halves_with_equal_competitor():
    scenario = Scenario(name="acc2", carriers=[CarrierConfig(0, 20.0)],
                        aggregated_cells=1, mean_sinr_db=17.0,
                        fading_std_db=0.0, duration_s=3.0, seed=2)
    exp = Experiment(scenario)
    handle = exp.add_flow(FlowSpec(scheme="pbe", rnti=100))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=101))
    exp.run()
    report = handle.monitor.report(rtprop_subframes=40)
    truth = _true_goodput_bps(100, 17.0)
    assert report.users_per_cell[0] == 2
    assert report.transport_capacity_bps == pytest.approx(truth / 2,
                                                          rel=0.12)


def test_estimate_tracks_capacity_within_feedback_delay():
    """When a competitor departs, the estimate doubles within ~2 RTprop
    windows — the millisecond-granularity responsiveness claim."""
    scenario = Scenario(name="acc3", carriers=[CarrierConfig(0, 20.0)],
                        aggregated_cells=1, mean_sinr_db=17.0,
                        fading_std_db=0.0, duration_s=3.0, seed=2)
    exp = Experiment(scenario)
    handle = exp.add_flow(FlowSpec(scheme="pbe", rnti=100))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=101, duration_s=1.5))
    samples = []
    client = handle.receiver
    client.uplink = Tap(client.uplink, lambda ack: samples.append(
        (exp.sim.now, ack.feedback.target_rate_bps)))
    exp.run()
    before = [r for t, r in samples if 1.2e6 < t < 1.45e6]
    after = [r for t, r in samples if 1.8e6 < t < 2.2e6]
    assert min(after) > 1.5 * (sum(before) / len(before))
