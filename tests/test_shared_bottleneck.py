"""Shared Internet-bottleneck topology (§4.2.3 fairness claim)."""

import pytest

from repro.harness import Experiment, FlowSpec, Scenario, jain_index
from repro.net.link import FlowDemux, Link, PacketSink
from repro.net.packet import Packet
from repro.phy.carrier import CarrierConfig


def _scenario(**kw):
    defaults = dict(name="shared",
                    carriers=[CarrierConfig(0, 20.0)],
                    aggregated_cells=1, mean_sinr_db=18.0,
                    fading_std_db=0.5, duration_s=6.0, seed=17)
    defaults.update(kw)
    return Scenario(**defaults)


class TestFlowDemux:
    def test_routes_by_flow_id(self):
        a, b = PacketSink(), PacketSink()
        demux = FlowDemux()
        demux.add_route(1, a)
        demux.add_route(2, b)
        demux.receive(Packet(1, 0))
        demux.receive(Packet(2, 0))
        demux.receive(Packet(99, 0))
        assert len(a.packets) == 1
        assert len(b.packets) == 1
        assert demux.unrouted == 1


def test_shared_link_requires_demux():
    exp = Experiment(_scenario())
    bogus = Link(exp.sim, PacketSink(), rate_bps=1e6, delay_us=0)
    with pytest.raises(ValueError, match="FlowDemux"):
        exp.add_flow(FlowSpec(scheme="bbr", shared_link=bogus))


def test_shared_link_flow_refuses_its_own_internet_delay():
    """A shared-link flow has no private hop to carry a per-flow
    delay: setting one is refused, not silently run at the shared
    link's delay."""
    exp = Experiment(_scenario())
    shared = exp.make_shared_bottleneck(rate_bps=20e6, delay_us=18_000)
    with pytest.raises(ValueError,
                       match="internet_delay_us.*shared_link"):
        exp.add_flow(FlowSpec(scheme="bbr", shared_link=shared,
                              internet_delay_us=40_000))


def test_two_pbe_flows_share_wired_bottleneck_fairly():
    """Both flows detect the Internet bottleneck and split the 20
    Mbit/s wired link roughly evenly via the capped-BBR mode."""
    exp = Experiment(_scenario())
    shared = exp.make_shared_bottleneck(rate_bps=20e6, delay_us=18_000)
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100, shared_link=shared))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=101, shared_link=shared))
    results = exp.run()
    tputs = [r.summary.average_throughput_bps for r in results]
    total = sum(tputs)
    assert total == pytest.approx(20e6, rel=0.15)
    assert jain_index(tputs) > 0.85
    for r in results:
        assert r.state_fractions["internet"] > 0.5


def test_pbe_coexists_with_cubic_at_wired_bottleneck():
    """§4.3: PBE is 'strictly less aggressive than BBR' at a shared
    wired bottleneck — it must survive against CUBIC without
    collapsing, though CUBIC (loss-based over a deep buffer) wins."""
    exp = Experiment(_scenario(duration_s=8.0))
    shared = exp.make_shared_bottleneck(rate_bps=20e6, delay_us=18_000,
                                        queue_packets=200)
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100, shared_link=shared))
    exp.add_flow(FlowSpec(scheme="cubic", rnti=101, shared_link=shared))
    results = exp.run()
    tputs = {r.spec.scheme: r.summary.average_throughput_bps
             for r in results}
    assert tputs["pbe"] > 2e6          # not starved
    assert tputs["pbe"] + tputs["cubic"] == pytest.approx(20e6,
                                                          rel=0.2)
