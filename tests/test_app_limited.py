"""Application-limited flows (the paper's Figure 5 'User 3' case)."""

import pytest

from repro.harness import Experiment, FlowSpec, Scenario
from repro.phy.carrier import CarrierConfig


def _scenario(**kw):
    defaults = dict(name="app", carriers=[CarrierConfig(0, 10.0)],
                    aggregated_cells=1, mean_sinr_db=17.0,
                    fading_std_db=0.0, duration_s=3.0, seed=15)
    defaults.update(kw)
    return Scenario(**defaults)


def test_app_rate_caps_throughput():
    exp = Experiment(_scenario())
    exp.add_flow(FlowSpec(scheme="pbe", app_rate_bps=8e6))
    result = exp.run()[0]
    assert result.summary.average_throughput_mbps == pytest.approx(
        8.0, rel=0.1)


def test_app_limited_flow_keeps_low_delay():
    exp = Experiment(_scenario())
    exp.add_flow(FlowSpec(scheme="pbe", app_rate_bps=8e6))
    result = exp.run()[0]
    floor = min(result.stats.delay_us) / 1_000
    assert result.summary.p95_delay_ms < floor + 12.0


def test_app_limited_packets_marked():
    from repro.baselines.base import Sender
    exp = Experiment(_scenario())
    handle = exp.add_flow(FlowSpec(scheme="bbr", app_rate_bps=5e6))
    marked = []
    egress = handle.sender.egress

    class Spy:
        def receive(self, packet):
            marked.append(packet.app_limited)
            egress.receive(packet)

    handle.sender.egress = Spy()
    exp.run()
    # Once BBR's allowed rate exceeds 5 Mbit/s, packets are marked.
    assert any(marked)


def test_bbr_recovers_from_app_limit_but_only_cycle_by_cycle():
    """An app-limited phase must not permanently pin BBR's bandwidth
    estimate — but recovery is inherently slow (+25% per ~8-RTprop
    probe cycle), which is exactly the lag PBE-CC's explicit
    measurements avoid."""
    import numpy as np
    exp = Experiment(_scenario(duration_s=4.0))
    handle = exp.add_flow(FlowSpec(scheme="bbr"))
    # App-limited to 5 Mbit/s for 2 s, then unthrottled.
    exp.sim.schedule(0, lambda: setattr(handle.sender, "app_rate_bps",
                                        5e6))
    exp.sim.schedule(2_000_000,
                     lambda: setattr(handle.sender, "app_rate_bps",
                                     None))
    result = exp.run()[0]
    arrivals = np.asarray(result.stats.arrival_us)
    sizes = np.asarray(result.stats.size_bits)

    def rate(lo_s, hi_s):
        mask = (arrivals > lo_s * 1e6) & (arrivals <= hi_s * 1e6)
        return sizes[mask].sum() / (hi_s - lo_s) / 1e6

    # Growing, well above the old cap, but nowhere near the ~40 Mbit/s
    # capacity yet: probing compounds cycle by cycle.
    assert rate(2.5, 3.0) > 6.0
    assert rate(3.5, 4.0) > rate(2.5, 3.0)
    assert rate(3.5, 4.0) < 35.0


def test_pbe_recovers_from_app_limit_within_an_rtt():
    """Contrast: PBE-CC's feedback already says the capacity is there,
    so the sender jumps straight back up."""
    import numpy as np
    exp = Experiment(_scenario(duration_s=4.0))
    handle = exp.add_flow(FlowSpec(scheme="pbe", app_rate_bps=5e6))
    exp.sim.schedule(2_000_000,
                     lambda: setattr(handle.sender, "app_rate_bps",
                                     None))
    result = exp.run()[0]
    arrivals = np.asarray(result.stats.arrival_us)
    sizes = np.asarray(result.stats.size_bits)
    soon = sizes[(arrivals > 2.2e6) & (arrivals <= 2.7e6)].sum() / 0.5
    assert soon / 1e6 > 30.0  # near capacity within ~0.2 s


def test_other_pbe_user_grabs_idle_capacity():
    """Figure 5: a rate-limited user leaves idle PRBs; the full-buffer
    PBE user detects and occupies them."""
    exp = Experiment(_scenario(duration_s=3.0))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=100, app_rate_bps=6e6))
    exp.add_flow(FlowSpec(scheme="pbe", rnti=101))
    results = exp.run()
    tputs = {r.spec.rnti: r.summary.average_throughput_mbps
             for r in results}
    assert tputs[100] == pytest.approx(6.0, rel=0.15)
    # The unconstrained user takes (nearly) all the rest of the ~40
    # Mbit/s cell rather than stopping at a half split.
    assert tputs[101] > 25.0


def test_sender_validates_app_rate():
    from repro.baselines.base import Sender
    from repro.baselines.cubic import Cubic
    from repro.net.sim import Simulator
    with pytest.raises(ValueError):
        Sender(Simulator(), 1, Cubic(), egress=None, app_rate_bps=0)
