"""Tests for the BER/TBLER error model (paper Figure 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.error import (
    MAX_BER,
    MIN_BER,
    block_error_rate,
    retransmission_ber,
    sinr_to_ber,
)


def test_ber_calibration_anchors():
    # The paper's measurement anchors: ~1e-6 at the strong location,
    # ~5e-6 at the weak one.
    assert sinr_to_ber(13.0) == pytest.approx(1e-6, rel=0.05)
    assert sinr_to_ber(-2.0) == pytest.approx(5e-6, rel=0.05)


def test_ber_decreases_with_sinr():
    bers = [sinr_to_ber(s) for s in range(-10, 40, 2)]
    assert bers == sorted(bers, reverse=True)


def test_ber_clamped():
    assert sinr_to_ber(-100.0) == MAX_BER
    assert sinr_to_ber(200.0) == MIN_BER


def test_block_error_rate_formula():
    # TBLER = 1 - (1-p)^L exactly.
    p, L = 3e-6, 30_000
    expected = 1 - (1 - p) ** L
    assert block_error_rate(p, L) == pytest.approx(expected, rel=1e-9)


def test_block_error_rate_paper_figure6b_scale():
    # Figure 6(b): at p = 5e-6 a 70 kbit TB fails ~30% of the time.
    assert block_error_rate(5e-6, 70_000) == pytest.approx(0.30, abs=0.03)
    # and a 10 kbit TB at p = 1e-6 is ~1%.
    assert block_error_rate(1e-6, 10_000) == pytest.approx(0.01, abs=0.005)


def test_block_error_rate_edges():
    assert block_error_rate(0.0, 10_000) == 0.0
    assert block_error_rate(1e-6, 0) == 0.0
    with pytest.raises(ValueError):
        block_error_rate(-0.1, 10)
    with pytest.raises(ValueError):
        block_error_rate(1.5, 10)
    with pytest.raises(ValueError):
        block_error_rate(1e-6, -1)


@given(st.floats(min_value=1e-9, max_value=1e-3),
       st.integers(min_value=0, max_value=10**6))
def test_block_error_rate_is_probability(p, bits):
    tbler = block_error_rate(p, bits)
    assert 0.0 <= tbler <= 1.0


@given(st.floats(min_value=1e-9, max_value=1e-4),
       st.integers(min_value=1, max_value=10**5))
def test_block_error_rate_monotonic_in_size(p, bits):
    assert block_error_rate(p, 2 * bits) >= block_error_rate(p, bits)


def test_retransmission_combining_gain():
    base = 1e-5
    assert retransmission_ber(base, 0) == base
    assert retransmission_ber(base, 1) == pytest.approx(1e-6)
    assert retransmission_ber(base, 2) == pytest.approx(1e-7)


def test_retransmission_rejects_negative_attempt():
    with pytest.raises(ValueError):
        retransmission_ber(1e-6, -1)
