"""Tests for the PRB grid and MCS/CQI tables."""

import pytest
from hypothesis import given, strategies as st

from repro import phy
from repro.phy import mcs, prb


def test_standard_bandwidths():
    assert prb.prbs_for_bandwidth(20.0) == 100
    assert prb.prbs_for_bandwidth(10.0) == 50
    assert prb.prbs_for_bandwidth(5.0) == 25
    assert prb.prbs_for_bandwidth(1.4) == 6


def test_nonstandard_bandwidth_rejected():
    with pytest.raises(ValueError, match="non-standard"):
        prb.prbs_for_bandwidth(7.0)


def test_prb_constants():
    # A PRB pair spans one 1 ms subframe: the scheduler's time unit.
    assert phy.SUBFRAME_US == 1_000


def test_mcs_table_efficiency_monotonic():
    effs = [e.efficiency for e in mcs.MCS_TABLE]
    assert effs == sorted(effs)
    assert effs[0] == 0.0


def test_sinr_to_mcs_monotonic():
    prev = 0
    for sinr in range(-10, 35):
        index = mcs.sinr_to_mcs(float(sinr))
        assert index >= prev
        prev = index


def test_sinr_to_mcs_extremes():
    assert mcs.sinr_to_mcs(-20.0) == 0      # out of range: no service
    assert mcs.sinr_to_mcs(40.0) == mcs.MAX_MCS_INDEX


def test_one_sinr_threshold_per_mcs_index_above_zero():
    # bisect over the thresholds can return no index past the table.
    assert len(mcs._SINR_THRESHOLDS_DB) == mcs.MAX_MCS_INDEX


def test_bits_per_prb_zero_for_mcs_zero():
    assert mcs.bits_per_prb(0, 1) == 0


def test_bits_per_prb_scales_with_streams():
    one = mcs.bits_per_prb(10, 1)
    two = mcs.bits_per_prb(10, 2)
    assert two == 2 * one


def test_peak_rate_matches_paper():
    # Figure 11(b): maximum achievable rate ~1.8 Mbit/s/PRB.
    peak = mcs.max_bits_per_prb(spatial_streams=2)
    assert 1_700 <= peak <= 1_900  # bits per PRB per 1 ms subframe


def test_bits_per_prb_validation():
    with pytest.raises(ValueError):
        mcs.bits_per_prb(-1)
    with pytest.raises(ValueError):
        mcs.bits_per_prb(99)
    with pytest.raises(ValueError):
        mcs.bits_per_prb(5, spatial_streams=0)
    with pytest.raises(ValueError):
        mcs.bits_per_prb(5, spatial_streams=5)


@given(st.floats(min_value=-20, max_value=40),
       st.integers(min_value=1, max_value=4))
def test_bits_per_prb_always_valid(sinr, streams):
    index = mcs.sinr_to_mcs(sinr)
    bits = mcs.bits_per_prb(index, streams)
    assert 0 <= bits <= mcs.max_bits_per_prb(4)
