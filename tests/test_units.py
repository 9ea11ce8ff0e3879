"""Tests for unit conventions and conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.net import units


def seconds(us):
    """Integer microseconds back to float seconds (the oracle of
    ``us_from_seconds``)."""
    return us / units.US_PER_S


def test_subframe_is_one_millisecond():
    assert units.SUBFRAME_US == 1_000
    assert units.US_PER_MS == 1_000
    assert units.US_PER_S == 1_000_000


def test_mss_is_1500_bytes():
    assert units.MSS_BYTES == 1500
    assert units.MSS_BITS == 12_000


def test_seconds_roundtrip():
    assert seconds(units.us_from_seconds(2.5)) == 2.5
    assert units.us_from_seconds(2.5) == 2_500_000


def test_transmission_time_basic():
    # 12000 bits at 12 Mbit/s = 1 ms.
    assert units.transmission_time_us(12_000, 12e6) == 1_000


def test_transmission_time_minimum_one_microsecond():
    assert units.transmission_time_us(1, 1e12) == 1


def test_transmission_time_rejects_bad_rate():
    with pytest.raises(ValueError):
        units.transmission_time_us(100, 0)
    with pytest.raises(ValueError):
        units.transmission_time_us(100, -5)


@given(st.integers(min_value=0, max_value=10**9),
       st.floats(min_value=1e3, max_value=1e12))
def test_transmission_time_non_negative_and_scales(bits, rate):
    t = units.transmission_time_us(bits, rate)
    assert t >= 1
    # Doubling the payload at least does not shrink the time.
    assert units.transmission_time_us(2 * bits, rate) >= t


@given(st.floats(min_value=0.001, max_value=10_000.0))
def test_seconds_us_roundtrip_is_close(s):
    # Quantization to integer microseconds costs at most half a µs.
    assert abs(seconds(units.us_from_seconds(s)) - s) <= 5e-7
