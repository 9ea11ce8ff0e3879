"""Tests for per-flow delivery logs."""

import pytest

from repro.harness.metrics import summarize_flow
from repro.net.flow import FlowStats


def test_empty_stats():
    s = FlowStats(1)
    assert s.packets == 0
    assert s.total_bits == 0
    assert s.average_throughput_bps() == 0.0
    assert list(s.delay_us) == []


def test_record_accumulates():
    s = FlowStats(1)
    s.record(1_000, 12_000, 20_000)
    s.record(2_000, 12_000, 21_000)
    assert s.packets == 2
    assert s.total_bits == 24_000
    assert s.first_arrival_us == 1_000
    assert s.last_arrival_us == 2_000


def test_average_throughput_over_span():
    s = FlowStats(1)
    # 24 kbit over 1 ms span = 24 Mbit/s.
    s.record(0, 12_000, 0)
    s.record(1_000, 12_000, 0)
    assert s.average_throughput_bps() == pytest.approx(24e6)


def test_single_packet_throughput_is_zero_span():
    s = FlowStats(1)
    s.record(500, 12_000, 0)
    assert s.average_throughput_bps() == 0.0


def test_delays_in_milliseconds():
    # The log keeps µs; summaries report ms.
    s = FlowStats(1)
    s.record(0, 1, 25_500)
    assert list(s.delay_us) == [25_500]
    assert summarize_flow(s).median_delay_ms == 25.5
