"""Tests for the experiment runner and scheme registry."""

import pytest

from repro.baselines import Bbr, Cubic, FixedRate
from repro.core.sender import PbeSender
from repro.harness import Experiment, FlowSpec, Scenario, make_cc
from repro.harness.runner import SCHEMES
from repro.phy.carrier import CarrierConfig


def _cheap_scenario(**kw):
    defaults = dict(
        name="cheap",
        carriers=[CarrierConfig(0, 10.0), CarrierConfig(1, 5.0)],
        aggregated_cells=1, mean_sinr_db=14.0, fading_std_db=0.5,
        busy=False, duration_s=2.0, seed=42)
    defaults.update(kw)
    return Scenario(**defaults)


def test_registry_covers_papers_eight_schemes():
    for scheme in ("pbe", "bbr", "cubic", "verus", "sprout", "copa",
                   "pcc", "vivace"):
        assert scheme in SCHEMES


def test_make_cc_types():
    assert isinstance(make_cc("pbe"), PbeSender)
    assert isinstance(make_cc("bbr"), Bbr)
    assert isinstance(make_cc("cubic"), Cubic)
    assert isinstance(make_cc("cbr", rate_bps=5e6), FixedRate)


def test_make_cc_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        make_cc("quic-magic")


def test_refused_flow_wires_nothing():
    """A flow refused for its RNTI, cells or scheme leaves no ingress
    adapter, monitor callback or shared-link route behind."""
    exp = Experiment(_cheap_scenario(aggregated_cells=2))
    shared = exp.make_shared_bottleneck(rate_bps=20e6, delay_us=10_000)
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100, shared_link=shared))
    network = exp.network
    routes = dict(shared.sink._routes)

    def wiring():
        return ({c: len(m) for c, m in network._monitors.items()},
                sorted(network._ingresses), sorted(network._users))

    before = wiring()
    for spec in (FlowSpec(scheme="pbe", rnti=100),
                 FlowSpec(scheme="pbe", rnti=100, shared_link=shared),
                 FlowSpec(scheme="quic-magic", rnti=101),
                 FlowSpec(scheme="pbe", rnti=102, cells=[0, 0]),
                 FlowSpec(scheme="pbe", rnti=103, cells=[0, 9])):
        with pytest.raises(ValueError):
            exp.add_flow(spec)
        assert wiring() == before, spec
        assert shared.sink._routes == routes, spec
    assert len(exp.flows) == 1


def test_single_flow_runs_and_summarizes():
    result_list = Experiment(_cheap_scenario())
    handle = result_list.add_flow(FlowSpec(scheme="bbr"))
    results = result_list.run()
    assert len(results) == 1
    r = results[0]
    assert r.summary.average_throughput_mbps > 5.0
    assert r.summary.average_delay_ms > 0
    assert r.sent_packets > 0


def test_pbe_flow_reports_state_fractions_and_monitor():
    exp = Experiment(_cheap_scenario())
    handle = exp.add_flow(FlowSpec(scheme="pbe"))
    assert handle.monitor is not None
    results = exp.run()
    fractions = results[0].state_fractions
    assert fractions is not None
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_non_pbe_flow_has_no_monitor():
    exp = Experiment(_cheap_scenario())
    handle = exp.add_flow(FlowSpec(scheme="cubic"))
    assert handle.monitor is None


def test_flow_start_and_duration_respected():
    exp = Experiment(_cheap_scenario(duration_s=2.0))
    handle = exp.add_flow(FlowSpec(scheme="bbr", start_s=0.5,
                                   duration_s=0.5))
    results = exp.run()
    stats = results[0].stats
    assert stats.first_arrival_us >= 500_000
    # Nothing delivered long after the stop (inflight drains briefly).
    assert stats.last_arrival_us < 1_300_000


def test_two_flows_same_cell():
    exp = Experiment(_cheap_scenario())
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=101))
    results = exp.run()
    tputs = [r.summary.average_throughput_bps for r in results]
    assert all(t > 1e6 for t in tputs)


def test_cc_kwargs_passthrough():
    exp = Experiment(_cheap_scenario())
    handle = exp.add_flow(FlowSpec(scheme="cbr",
                                   cc_kwargs={"rate_bps": 3e6}))
    results = exp.run()
    assert results[0].summary.average_throughput_mbps == pytest.approx(
        3.0, rel=0.1)


def test_allocation_logging():
    exp = Experiment(_cheap_scenario())
    exp.add_flow(FlowSpec(scheme="bbr", log_allocations=True))
    results = exp.run()
    allocations = results[0].allocations
    assert allocations
    subframe, cell_id, prbs = allocations[0]
    assert cell_id == 0 and prbs > 0


def test_background_users_consume_capacity():
    # Average over several seeds: individual on-off users may happen to
    # be silent for a whole short run.
    def mean_tput(background):
        total = 0.0
        for seed in (7, 8, 9):
            exp = Experiment(_cheap_scenario(
                seed=seed, background_users=background))
            exp.add_flow(FlowSpec(scheme="bbr"))
            total += exp.run()[0].summary.average_throughput_bps
        return total / 3

    assert mean_tput(4) < mean_tput(0)
