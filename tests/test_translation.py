"""Tests for the Eqn. 5 physical→transport rate translation."""

import pytest
from hypothesis import given, strategies as st

from repro.cell.queues import PROTOCOL_OVERHEAD
from repro.monitor.translation import (
    TranslationTable,
    transport_from_physical,
)
from repro.phy.error import block_error_rate


def physical_from_transport(ct_bits_per_subframe, ber):
    """Eqn. 5 forwards: ``Cp`` from ``Ct`` (the oracle of its solver)."""
    tbler = block_error_rate(ber, int(ct_bits_per_subframe))
    return ct_bits_per_subframe * (1.0 + tbler) / (1.0 - PROTOCOL_OVERHEAD)


def test_zero_capacity():
    assert transport_from_physical(0.0, 1e-6) == 0.0


def test_no_errors_leaves_only_protocol_overhead():
    ct = transport_from_physical(100_000, ber=0.0)
    assert ct == pytest.approx(100_000 * (1 - PROTOCOL_OVERHEAD), rel=1e-6)


def test_roundtrip_solves_eqn5():
    # Cp = Ct + Ct·TBLER(L=Ct) + γ·Cp must hold at the solution.
    cp, ber = 120_000.0, 2e-6
    ct = transport_from_physical(cp, ber)
    assert physical_from_transport(ct, ber) == pytest.approx(cp, rel=1e-3)


def test_higher_ber_means_lower_goodput():
    rates = [transport_from_physical(100_000, b)
             for b in (1e-7, 1e-6, 5e-6, 2e-5)]
    assert rates == sorted(rates, reverse=True)


def test_validation():
    with pytest.raises(ValueError):
        transport_from_physical(-1, 1e-6)


@given(st.floats(min_value=0, max_value=300_000),
       st.floats(min_value=1e-8, max_value=1e-4))
def test_goodput_below_capacity(cp, ber):
    ct = transport_from_physical(cp, ber)
    assert 0.0 <= ct <= cp


@given(st.floats(min_value=1_000, max_value=300_000),
       st.floats(min_value=1e-8, max_value=1e-5))
def test_monotonic_in_capacity(cp, ber):
    assert (transport_from_physical(2 * cp, ber)
            >= transport_from_physical(cp, ber))


def test_table_caches():
    table = TranslationTable()
    a = table.transport_rate(123_456, 1e-6)
    b = table.transport_rate(123_789, 1.05e-6)  # same quantization bucket
    assert a == b
    assert len(table) == 1  # one entry served both lookups


def test_table_close_to_exact():
    table = TranslationTable()
    approx = table.transport_rate(150_000, 1e-6)
    exact = transport_from_physical(150_000, 1e-6)
    assert approx == pytest.approx(exact, rel=0.02)


def test_table_zero_ber():
    table = TranslationTable()
    assert table.transport_rate(50_000, 0.0) == pytest.approx(
        50_000 * (1 - PROTOCOL_OVERHEAD), rel=0.03)
