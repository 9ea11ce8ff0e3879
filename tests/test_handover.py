"""Tests for inter-cell handover (§1's challenge case)."""

import numpy as np
import pytest

from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.fingerprint import digest_run
from repro.phy.carrier import AggregationState, CarrierConfig
from repro.phy.channel import StaticChannel


def _scenario(**kw):
    defaults = dict(
        name="ho",
        carriers=[CarrierConfig(0, 10.0), CarrierConfig(1, 10.0)],
        aggregated_cells=1, mean_sinr_db=15.0, fading_std_db=0.5,
        duration_s=4.0, seed=13)
    defaults.update(kw)
    return Scenario(**defaults)


def test_network_handover_validation():
    exp = Experiment(_scenario())
    exp.add_flow(FlowSpec(scheme="bbr", cells=[0]))
    with pytest.raises(ValueError):
        exp.network.handover(999, [1])
    with pytest.raises(ValueError):
        exp.network.handover(100, [9])


def _digest_with(refused=None):
    """Digest of a 0.6 s two-carrier BBR run; ``refused(network)`` is
    attempted at 300 ms and must raise ``ValueError``."""
    exp = Experiment(_scenario(duration_s=0.6))
    handle = exp.add_flow(FlowSpec(scheme="bbr", cells=[0, 1]))
    if refused is not None:
        exp.sim.run(until_us=300_000)
        with pytest.raises(ValueError):
            refused(exp.network)
    return digest_run(exp, [handle], exp.run())


@pytest.mark.parametrize("new_cells", [[], [1, 1], [0, 1, 0]],
                         ids=["empty", "repeated", "repeated_primary"])
def test_refused_handover_leaves_the_network_unchanged(new_cells):
    """Nothing moves before the cell list is checked: no user count,
    HARQ process or CA state, so the run is the one without the call."""
    assert _digest_with(lambda net: net.handover(100, new_cells)) \
        == _digest_with()


def test_a_repeated_cell_is_refused_at_attach():
    with pytest.raises(ValueError, match="repeated"):
        AggregationState(configured=[0, 0])
    exp = Experiment(_scenario())
    network = exp.network
    before = dict(network._cell_user_count)
    with pytest.raises(ValueError, match="repeated"):
        network.add_user(7, [0, 0], StaticChannel(15.0))
    with pytest.raises(ValueError, match="repeated"):
        network.add_exogenous_user(8, [1, 0, 1], StaticChannel(15.0),
                                   demand=None)
    assert network._cell_user_count == before
    assert 7 not in network._users and 8 not in network._users


def test_flow_survives_handover():
    exp = Experiment(_scenario())
    handle = exp.add_flow(FlowSpec(scheme="bbr", cells=[0]))
    exp.schedule_handover(handle, at_s=2.0, new_cells=[1])
    result = exp.run()[0]
    arrivals = np.asarray(result.stats.arrival_us)
    # Delivery continues on both sides of the handover.
    assert (arrivals < 1.9e6).sum() > 100
    assert (arrivals > 2.3e6).sum() > 100


def test_handover_moves_traffic_between_cells():
    exp = Experiment(_scenario())
    handle = exp.add_flow(FlowSpec(scheme="bbr", cells=[0],
                                   log_allocations=True))
    exp.schedule_handover(handle, at_s=2.0, new_cells=[1])
    result = exp.run()[0]
    cells_before = {c for sf, c, _ in result.allocations if sf < 2_000}
    cells_after = {c for sf, c, _ in result.allocations if sf > 2_100}
    assert cells_before == {0}
    assert cells_after == {1}


def test_handover_gap_pauses_scheduling():
    exp = Experiment(_scenario())
    handle = exp.add_flow(FlowSpec(scheme="bbr", cells=[0],
                                   log_allocations=True))
    exp.schedule_handover(handle, at_s=2.0, new_cells=[1])
    exp.run()
    result_alloc = exp.network.user(100).allocated_history
    gap = [sf for sf, _, _ in result_alloc if 2_000 <= sf < 2_040]
    assert gap == []  # 40-subframe interruption


def test_pbe_monitor_follows_handover():
    exp = Experiment(_scenario(duration_s=5.0))
    # The PBE device has decoders for both cells (union of the path).
    handle = exp.add_flow(FlowSpec(scheme="pbe", cells=[0, 1]))
    # But cell 1 is not activated pre-handover: restrict via network.
    exp.network.user(100).agg.configured[:] = [0]
    exp.schedule_handover(handle, at_s=2.5, new_cells=[1])
    result = exp.run()[0]
    assert handle.monitor.primary_cell == 1
    arrivals = np.asarray(result.stats.arrival_us)
    sizes = np.asarray(result.stats.size_bits)
    late = sizes[arrivals > 3.5e6].sum() / 1.4e6
    # PBE re-converges to the new cell's capacity (~40 Mbit/s here).
    assert late > 25.0
    # And delay stays controlled after the handover.
    delays_late = np.asarray(result.stats.delay_us)[arrivals > 3.5e6]
    assert np.percentile(delays_late, 95) / 1_000 < 60.0


def test_monitor_set_primary_validation():
    exp = Experiment(_scenario())
    handle = exp.add_flow(FlowSpec(scheme="pbe", cells=[0]))
    with pytest.raises(ValueError):
        handle.monitor.set_primary(1)  # no decoder for cell 1


def test_handover_with_channel_change():
    exp = Experiment(_scenario())
    handle = exp.add_flow(FlowSpec(scheme="bbr", cells=[0]))
    exp.schedule_handover(handle, at_s=2.0, new_cells=[1],
                          channel=StaticChannel(24.0))
    exp.run()
    assert exp.network.user(100).channel.mean_sinr_db == 24.0
