"""Tests for the Eqn. 1-4 capacity estimator."""

import pytest

from repro.monitor.capacity import CellCapacityEstimator
from repro.phy.dci import DciMessage, SubframeRecord

OWN = 100


def _record(subframe, allocations, cell=0, total=100):
    rec = SubframeRecord(subframe, cell, total)
    for rnti, prbs, bpp in allocations:
        rec.messages.append(DciMessage(subframe, cell, rnti, prbs, 12, 2,
                                       tbs_bits=prbs * bpp))
    return rec


def _estimator(total=100):
    return CellCapacityEstimator(cell_id=0, total_prbs=total, own_rnti=OWN)


def test_empty_estimator_returns_zero():
    est = _estimator().estimate(40)
    assert est.physical_capacity == 0.0
    assert est.users == 1


def test_sole_user_gets_own_plus_all_idle():
    # Eqn. 3 with N=1: Cp = Rw·(Pa + Pidle).
    est = _estimator()
    for sf in range(40):
        est.update(_record(sf, [(OWN, 60, 1000)]), own_rate_hint=1000,
                   ber_hint=1e-6)
    out = est.estimate(40)
    assert out.idle == pytest.approx(40.0)
    assert out.users == 1
    assert out.physical_capacity == pytest.approx(1000 * (60 + 40))
    assert out.fair_share == pytest.approx(1000 * 100 / 1)


def test_competitor_splits_idle_share():
    # Eqn. 3 with N=2: Cp = Rw·(Pa + Pidle/2).
    est = _estimator()
    for sf in range(40):
        est.update(_record(sf, [(OWN, 40, 1000), (7, 40, 800)]),
                   own_rate_hint=1000, ber_hint=1e-6)
    out = est.estimate(40)
    assert out.users == 2
    assert out.physical_capacity == pytest.approx(1000 * (40 + 20 / 2))
    assert out.fair_share == pytest.approx(1000 * 100 / 2)


def test_control_users_count_for_idle_not_for_n():
    # Eqn. 4 counts every user's PRBs; N uses the filtered count.
    est = _estimator()
    for sf in range(40):
        allocations = [(OWN, 50, 1000)]
        if sf == 10:
            allocations.append((9_000, 4, 100))  # one-subframe burst
        est.update(_record(sf, allocations), own_rate_hint=1000,
                   ber_hint=1e-6)
    out = est.estimate(40)
    assert out.users == 1  # burst filtered out of N
    assert out.idle == pytest.approx((40 * 50 - 4) / 40)


def test_own_rate_from_dci_overrides_hint():
    est = _estimator()
    for sf in range(10):
        est.update(_record(sf, [(OWN, 10, 1200)]), own_rate_hint=500,
                   ber_hint=1e-6)
    out = est.estimate(10)
    # Rw from the decoded DCI (1200), not the stale hint (500).
    assert out.physical_capacity == pytest.approx(1200 * 100, rel=0.01)


def test_hint_used_when_not_scheduled():
    est = _estimator()
    for sf in range(10):
        est.update(_record(sf, []), own_rate_hint=700, ber_hint=1e-6)
    out = est.estimate(10)
    assert out.physical_capacity == pytest.approx(700 * 100)


def test_window_limits_averaging():
    est = _estimator()
    for sf in range(50):
        prbs = 20 if sf < 40 else 80
        est.update(_record(sf, [(OWN, prbs, 1000)]), own_rate_hint=1000,
                   ber_hint=1e-6)
    # Short window sees only the recent 80-PRB regime.
    assert est.estimate(10).idle == pytest.approx(20.0)
    assert est.estimate(50).idle > 60.0


def test_last_own_grant_tracking():
    est = _estimator()
    est.update(_record(0, [(OWN, 10, 1000)]), 1000, 1e-6)
    est.update(_record(1, []), 1000, 1e-6)
    assert est.last_own_grant_subframe == 0
    assert est.last_subframe == 1


def test_wrong_cell_rejected():
    est = _estimator()
    with pytest.raises(ValueError):
        est.update(_record(0, [], cell=5), 1000, 1e-6)


def test_over_allocated_record_rejected_before_anything_is_folded():
    est = _estimator()
    est.update(_record(0, [(OWN, 10, 1000)]), 1000, 1e-6)
    with pytest.raises(ValueError, match="over-allocated subframe 1 on "
                                         "cell 0: 110/100"):
        est.update(_record(1, [(OWN, 60, 1000), (7, 50, 1000)]),
                   1000, 1e-6)
    assert est.last_subframe == 0 and len(est.samples()) == 1
    assert est.users.detected_users() == {OWN}


def test_window_validation():
    with pytest.raises(ValueError):
        _estimator().estimate(0)
