"""Tests for synthetic demand sources."""

import pytest

from repro.traces.workload import OnOffRandomDemand, ScheduledDemand


def test_scheduled_steps():
    d = ScheduledDemand([(0.0, 40e6), (2.0, 6e6)])
    assert d.rate_at(0) == 40e6
    assert d.rate_at(1_999) == 40e6
    assert d.rate_at(2_000) == 6e6


def test_scheduled_zero_before_first_entry():
    d = ScheduledDemand([(1.0, 5e6)])
    assert d.rate_at(0) == 0.0
    assert sum(d.bits(sf) for sf in range(500)) == 0


def test_scheduled_validation():
    with pytest.raises(ValueError):
        ScheduledDemand([])
    with pytest.raises(ValueError):
        ScheduledDemand([(1.0, 1e6), (1.0, 2e6)])


def test_on_off_classmethod_builds_periodic_schedule():
    d = ScheduledDemand.on_off(period_s=8.0, on_s=4.0, rate_bps=60e6,
                               total_s=40.0)
    assert d.rate_at(1_000) == 60e6    # inside first on period
    assert d.rate_at(5_000) == 0.0     # off
    assert d.rate_at(9_000) == 60e6    # second period
    with pytest.raises(ValueError):
        ScheduledDemand.on_off(period_s=2.0, on_s=4.0, rate_bps=1e6,
                               total_s=10.0)


def test_on_off_random_mean_rate():
    d = OnOffRandomDemand(mean_on_s=1.0, mean_off_s=1.0,
                          rate_range_bps=(4e6, 4e6), seed=7)
    total = sum(d.bits(sf) for sf in range(200_000))  # 200 s
    mean_bps = total / 200.0
    assert mean_bps == pytest.approx(2e6, rel=0.25)  # half duty cycle


def test_on_off_random_alternates():
    d = OnOffRandomDemand(mean_on_s=0.05, mean_off_s=0.05, seed=1)
    states = [d.bits(sf) > 0 for sf in range(20_000)]
    assert any(states) and not all(states)


def test_on_off_validation():
    with pytest.raises(ValueError):
        OnOffRandomDemand(mean_on_s=0)
    with pytest.raises(ValueError):
        OnOffRandomDemand(rate_range_bps=(5e6, 1e6))
