"""Tests for the §7 alternative fairness policies."""

import pytest

from repro.cell.scheduler import DemandEntry, POLICIES, allocate_prbs


def _demand(rnti, bits, bpp):
    return DemandEntry(rnti=rnti, demand_bits=bits, bits_per_prb=bpp)


def test_policies_listed():
    assert POLICIES == ("equal", "equal_rate")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        allocate_prbs(100, [], policy="max-min-magic")


def test_equal_rate_favours_low_rate_users():
    # User 1 at 500 bits/PRB, user 2 at 1500: the equal_rate policy
    # gives user 1 three times the PRBs, equalizing throughput.
    demands = [_demand(1, 10**9, 500), _demand(2, 10**9, 1500)]
    grants = allocate_prbs(100, demands, policy="equal_rate")
    tput = {r: grants[r] * d.bits_per_prb
            for r, d in zip((1, 2), demands)}
    assert grants[1] > 2.5 * grants[2]
    assert tput[1] == pytest.approx(tput[2], rel=0.1)


def test_equal_policy_ignores_rates():
    demands = [_demand(1, 10**9, 500), _demand(2, 10**9, 1500)]
    grants = allocate_prbs(100, demands, policy="equal")
    assert abs(grants[1] - grants[2]) <= 1


def test_equal_rate_still_respects_demand():
    demands = [_demand(1, 2_000, 500), _demand(2, 10**9, 1500)]
    grants = allocate_prbs(100, demands, policy="equal_rate")
    assert grants[1] == 4           # ceil(2000/500): all it needs
    assert grants[2] == 96          # the rest


def test_equal_rate_never_overallocates():
    demands = [_demand(i, 10**9, 200 + 400 * i) for i in range(5)]
    grants = allocate_prbs(77, demands, policy="equal_rate")
    assert sum(grants.values()) <= 77


def test_network_accepts_policy():
    from repro.cell.basestation import CellularNetwork
    from repro.net.sim import Simulator
    from repro.phy.carrier import CarrierConfig

    net = CellularNetwork(Simulator(), [CarrierConfig(0)],
                          scheduler_policy="equal_rate")
    assert net.scheduler_policy == "equal_rate"


def test_equal_rate_end_to_end_equalizes_throughput():
    """Two full-buffer users at very different SINRs get similar
    goodput under equal_rate, very different under equal."""
    from repro.harness import Experiment, FlowSpec, Scenario
    from repro.phy.carrier import CarrierConfig

    def tputs(policy):
        scenario = Scenario(
            name=f"policy-{policy}",
            carriers=[CarrierConfig(0, 10.0)], aggregated_cells=1,
            duration_s=2.0, seed=9, scheduler_policy=policy)
        exp = Experiment(scenario)
        exp.add_flow(FlowSpec(scheme="cbr", rnti=100,
                              cc_kwargs={"rate_bps": 60e6}))
        exp.add_flow(FlowSpec(scheme="cbr", rnti=101,
                              cc_kwargs={"rate_bps": 60e6}))
        # Distinct channels: one strong, one weak user.
        exp.network.user(100).channel = scenario.channel()
        from repro.phy.channel import StaticChannel
        exp.network.user(100).channel = StaticChannel(24.0)
        exp.network.user(101).channel = StaticChannel(8.0)
        results = exp.run()
        return [r.summary.average_throughput_bps for r in results]

    equal = tputs("equal")
    rate_fair = tputs("equal_rate")
    ratio_equal = equal[0] / equal[1]
    ratio_rate = rate_fair[0] / rate_fair[1]
    assert ratio_equal > 1.5          # strong user dominates
    assert ratio_rate < ratio_equal   # equal_rate narrows the gap
    assert ratio_rate < 1.4

