"""Tests for component carriers and aggregation state."""

import pytest

from repro.phy.carrier import AggregationState, CarrierConfig


def test_carrier_config_prbs():
    assert CarrierConfig(0, 20.0).total_prbs == 100
    assert CarrierConfig(1, 10.0).total_prbs == 50


def test_aggregation_requires_primary():
    with pytest.raises(ValueError):
        AggregationState(configured=[])


def test_aggregation_starts_with_primary_only():
    agg = AggregationState(configured=[0, 1, 2])
    assert agg.primary_cell == 0
    assert agg.active_cells == [0]
    assert agg.can_activate
    assert not agg.can_deactivate


def test_sequential_activation_order():
    # §3: the network activates configured cells sequentially.
    agg = AggregationState(configured=[0, 1, 2])
    assert agg.activate_next() == 1
    assert agg.activate_next() == 2
    assert agg.active_cells == [0, 1, 2]
    assert not agg.can_activate
    with pytest.raises(ValueError):
        agg.activate_next()


def test_deactivation_reverse_order_primary_protected():
    agg = AggregationState(configured=[0, 1, 2], active_count=3)
    assert agg.deactivate_last() == 2
    assert agg.deactivate_last() == 1
    with pytest.raises(ValueError):
        agg.deactivate_last()
    assert agg.active_cells == [0]


def test_active_count_validation():
    with pytest.raises(ValueError):
        AggregationState(configured=[0], active_count=2)
    with pytest.raises(ValueError):
        AggregationState(configured=[0], active_count=0)
