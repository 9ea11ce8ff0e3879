"""Tests for the carrier-aggregation activation policy.

Each test runs the policy on short windows (the module constants, set
by ``monkeypatch``), so a switch shows within tens of subframes.
"""

import pytest

from repro.cell import ca_manager
from repro.cell.ca_manager import CarrierAggregationManager
from repro.phy.carrier import AggregationState


def _policy(monkeypatch, **kw):
    values = dict(WINDOW=10, ACTIVATION_FRACTION=0.7,
                  DEACTIVATION_FRACTION=0.5, DEACTIVATION_HOLD=20,
                  COOLDOWN=5)
    values.update(kw)
    for name, value in values.items():
        monkeypatch.setattr(ca_manager, name, value)


@pytest.fixture(autouse=True)
def short_windows(monkeypatch):
    _policy(monkeypatch)


def _drive(manager, agg, subframes, used, total, backlogged, start=0):
    actions = []
    for i in range(subframes):
        action = manager.observe(start + i, 1, agg, used, total, backlogged)
        if action:
            actions.append((start + i, action))
    return actions


def test_activation_on_sustained_high_utilization():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1])
    actions = _drive(manager, agg, 30, used=90, total=100, backlogged=True)
    assert actions and actions[0][1] == "activate"
    assert agg.active_cells == [0, 1]
    assert manager.activations_for(1) == 1


def test_no_activation_without_backlog():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1])
    actions = _drive(manager, agg, 50, used=90, total=100, backlogged=False)
    assert actions == []


def test_no_activation_at_low_utilization():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1])
    actions = _drive(manager, agg, 50, used=30, total=100, backlogged=True)
    assert actions == []


def test_no_activation_when_all_cells_active():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0], active_count=1)
    actions = _drive(manager, agg, 50, used=95, total=100, backlogged=True)
    assert actions == []


def test_deactivation_after_sustained_underuse():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1], active_count=2)
    actions = _drive(manager, agg, 60, used=10, total=150, backlogged=False)
    assert actions and actions[0][1] == "deactivate"
    assert agg.active_cells == [0]


def test_deactivation_needs_consecutive_underuse():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1], active_count=2)
    # Alternate 5 idle / 5 busy subframes: the windowed mean keeps
    # jumping back above the deactivation threshold, so the
    # under-utilization run never reaches the hold.
    for i in range(200):
        used = 10 if (i // 5) % 2 == 0 else 140
        manager.observe(i, 1, agg, used, 150, backlogged=False)
    assert agg.active_cells == [0, 1]


def test_cooldown_spaces_switches(monkeypatch):
    _policy(monkeypatch, COOLDOWN=100)
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1, 2])
    actions = _drive(manager, agg, 250, used=95, total=100, backlogged=True)
    assert len(actions) == 2
    assert agg.active_cells == [0, 1, 2]
    # Consecutive switches are at least one cooldown apart.
    assert actions[1][0] - actions[0][0] >= 100


def test_events_log():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1])
    _drive(manager, agg, 30, used=90, total=100, backlogged=True)
    assert manager.events
    subframe, rnti, action, cell = manager.events[0]
    assert (rnti, action, cell) == (1, "activate", 1)


def test_forget_drops_a_users_bookkeeping():
    manager = CarrierAggregationManager()
    agg = AggregationState(configured=[0, 1])
    _drive(manager, agg, 30, used=90, total=100, backlogged=True)
    assert manager.activations_for(1) == 1
    manager.forget(1)
    manager.forget(2)  # unknown RNTI: nothing to drop
    assert manager.activations_for(1) == 0
    assert not manager.state_for(1).history


def test_activations_for_an_unknown_rnti_is_a_read():
    """Asking about a user the manager never observed builds it no
    bookkeeping; the first observation does."""
    manager = CarrierAggregationManager()
    assert manager.activations_for(5) == 0
    assert manager._users == {}
    manager.observe(0, 5, AggregationState(configured=[0, 1]),
                    used_prbs=10, active_total_prbs=100, backlogged=True)
    state = manager._users[5]
    assert manager.state_for(5) is state and len(state.history) == 1


def test_reattached_rnti_starts_carrier_aggregation_afresh(monkeypatch):
    """``remove_user`` forgets the departed user: the same RNTI attached
    again must earn its secondary cell over a full window, not inherit
    the old utilisation history, cooldown and activation count."""
    from repro.cell.basestation import CellularNetwork
    from repro.net.sim import Simulator
    from repro.phy.carrier import CarrierConfig
    from repro.phy.channel import StaticChannel
    from repro.traces.workload import ScheduledDemand

    _policy(monkeypatch, WINDOW=32, COOLDOWN=10)
    sim = Simulator()
    network = CellularNetwork(
        sim, [CarrierConfig(cell_id=0), CarrierConfig(cell_id=1)])
    network.add_exogenous_user(9, [0, 1], StaticChannel(20.0),
                               ScheduledDemand([(0.0, 200e6)]))
    network.start()
    sim.run(until_us=59_500)
    assert network.ca.activations_for(9) == 1
    assert network._users[9].agg.active_cells == [0, 1]

    network.remove_user(9)
    assert 9 not in network.ca._users
    network.add_exogenous_user(9, [0, 1], StaticChannel(20.0),
                               ScheduledDemand([(0.0, 200e6)]))
    reattached_at = network.subframe
    assert network.ca.activations_for(9) == 0
    sim.run(until_us=60_500)
    assert len(network.ca.state_for(9).history) == 1

    sim.run(until_us=200_000)
    activations = [subframe for subframe, rnti, action, _ in
                   network.ca.events if action == "activate"]
    assert len(activations) == 2
    assert activations[1] >= reattached_at + ca_manager.WINDOW - 1
    assert network.ca.activations_for(9) == 1
