"""Tests for the PBE-CC ACK feedback encoding (§5)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.feedback import (
    PbeFeedback,
    decode_rate_bps,
    encode_interval_us,
)


def test_known_rate_roundtrip():
    # 12 Mbit/s -> one 1500-byte packet per millisecond.
    assert encode_interval_us(12e6) == 1_000
    assert decode_rate_bps(1_000) == pytest.approx(12e6)


def test_zero_rate_saturates():
    interval = encode_interval_us(0.0)
    assert interval == 2**32 - 1
    assert decode_rate_bps(interval) > 0  # minimum representable rate


def test_huge_rate_clamps_to_one_microsecond():
    assert encode_interval_us(1e15) == 1
    assert decode_rate_bps(1) == pytest.approx(12e9)


def test_decode_saturates_out_of_range():
    # Corrupted ACK fields clamp to the representable range instead of
    # raising.
    assert decode_rate_bps(0) == decode_rate_bps(1)
    assert decode_rate_bps(2**32) == decode_rate_bps(2**32 - 1)
    assert decode_rate_bps(-17) == decode_rate_bps(1)


@given(st.floats(min_value=1e4, max_value=1.2e8))
def test_quantization_error_below_one_percent(rate):
    # Up to 120 Mbit/s the interval is >= 100 µs, so rounding costs <1%.
    decoded = decode_rate_bps(encode_interval_us(rate))
    assert abs(decoded - rate) / rate < 0.01


@given(st.floats(min_value=1.2e8, max_value=1.2e9))
def test_quantization_error_bounded_at_gigabit_rates(rate):
    decoded = decode_rate_bps(encode_interval_us(rate))
    assert abs(decoded - rate) / rate < 0.06


def test_feedback_from_rates():
    fb = PbeFeedback.from_rates(50e6, 80e6, internet_bottleneck=True,
                                carrier_activated=True)
    assert fb.target_rate_bps == pytest.approx(50e6, rel=0.01)
    assert fb.fair_rate_bps == pytest.approx(80e6, rel=0.01)
    assert fb.internet_bottleneck
    assert fb.carrier_activated


def test_feedback_stale_bit():
    assert not PbeFeedback.from_rates(1e6, 1e6, False).stale
    assert PbeFeedback.from_rates(1e6, 1e6, False, stale=True).stale


def test_feedback_is_immutable():
    fb = PbeFeedback.from_rates(1e6, 1e6, False)
    with pytest.raises(AttributeError):
        fb.internet_bottleneck = True
