"""Tests for the evaluation metrics (100 ms windows, percentiles, Jain)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.harness.metrics import (
    ORDER_STATS,
    jain_index,
    percentile,
    summarize_flow,
    windowed_throughput_bps,
)
from repro.net.flow import FlowStats


def _steady_stats(rate_bps=12e6, duration_s=1.0, delay_us=20_000):
    stats = FlowStats(1)
    gap = round(12_000 * 1e6 / rate_bps)
    t = 0
    while t < duration_s * 1e6:
        stats.record(t, 12_000, delay_us)
        t += gap
    return stats


def test_windowed_throughput_steady_flow():
    stats = _steady_stats(rate_bps=12e6)
    windows = windowed_throughput_bps(stats)
    assert len(windows) == 10
    assert np.allclose(windows, 12e6, rtol=0.02)


def test_windowed_throughput_empty():
    assert windowed_throughput_bps(FlowStats(1)).size == 0


def test_percentile_basics():
    values = list(range(101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([], 50) == 0.0


def test_jain_perfect_fairness():
    assert jain_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)


def test_jain_total_unfairness():
    # One user hogging everything among n users -> 1/n.
    assert jain_index([30.0, 0.0, 0.0]) == pytest.approx(1 / 3)


def test_jain_paper_range():
    # The paper reports 98.73% for three near-equal flows.
    assert jain_index([33.0, 34.0, 31.0]) > 0.98


def test_jain_empty_is_defined():
    # A cell with no test flows must still get a defined matrix entry.
    assert jain_index([]) == 1.0


def test_jain_all_zero_is_defined():
    # All-zero throughputs: nobody is disadvantaged, not a div-by-zero.
    assert jain_index([0.0, 0.0, 0.0]) == 1.0
    assert jain_index(np.zeros(5)) == 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=10))
def test_jain_bounds(values):
    index = jain_index(values)
    assert 0.0 <= index <= 1.0 + 1e-9


def test_summarize_flow_fields():
    stats = _steady_stats(rate_bps=24e6, delay_us=30_000)
    summary = summarize_flow(stats, scheme="test")
    assert summary.scheme == "test"
    assert summary.average_throughput_mbps == pytest.approx(24.0, rel=0.03)
    assert summary.average_delay_ms == pytest.approx(30.0)
    assert summary.median_delay_ms == pytest.approx(30.0)
    assert summary.p95_delay_ms == pytest.approx(30.0)
    assert set(summary.throughput_percentiles_bps) == set(ORDER_STATS)
    assert summary.packets == stats.packets


def test_summarize_empty_flow():
    summary = summarize_flow(FlowStats(1), scheme="none")
    assert summary.average_throughput_bps == 0.0
    assert summary.packets == 0

