"""Tests for active-user filtering (§4.2.1, Figure 7)."""

from repro.monitor.filters import ActiveUserFilter
from repro.phy.dci import DciMessage, SubframeRecord


def _record(subframe, allocations, cell=0, total=100):
    rec = SubframeRecord(subframe, cell, total)
    for rnti, prbs in allocations:
        rec.messages.append(DciMessage(subframe, cell, rnti, prbs, 10, 1,
                                       tbs_bits=prbs * 500))
    return rec


def test_detects_all_users_in_window():
    f = ActiveUserFilter(window_subframes=10)
    f.update(_record(0, [(1, 50), (2, 4)]))
    f.update(_record(1, [(3, 10)]))
    assert f.detected_users() == {1, 2, 3}


def test_window_slides():
    f = ActiveUserFilter(window_subframes=2)
    f.update(_record(0, [(1, 50)]))
    f.update(_record(1, [(2, 50)]))
    f.update(_record(2, [(3, 50)]))
    assert f.detected_users() == {2, 3}


def test_one_subframe_users_filtered():
    # The dominant Figure-7 population: 4 PRBs for 1 subframe.
    f = ActiveUserFilter(window_subframes=40)
    f.update(_record(0, [(9, 4)]))
    for sf in range(1, 10):
        f.update(_record(sf, [(1, 30)]))
    assert 9 in f.detected_users()
    assert f.data_users() == {1}


def test_small_allocation_users_filtered():
    # Active often but on ≤ 4 PRBs: parameter-update traffic.
    f = ActiveUserFilter(window_subframes=40)
    for sf in range(10):
        f.update(_record(sf, [(9, 4), (1, 30)]))
    assert f.data_users() == {1}


def test_boundary_is_exclusive():
    # Ta > 1 and Pa > 4 strictly (§4.2.1): a user at exactly 2 subframes
    # and 5 PRBs average passes.
    f = ActiveUserFilter(window_subframes=40)
    f.update(_record(0, [(7, 5)]))
    f.update(_record(1, [(7, 5)]))
    assert f.data_users() == {7}


def test_include_self_always_counted():
    f = ActiveUserFilter(window_subframes=40)
    f.update(_record(0, [(1, 50)]))
    assert f.data_users(include=99) >= {99}
    assert f.data_user_count(include=99) >= 1


def test_count_is_at_least_one():
    f = ActiveUserFilter()
    assert f.data_user_count() == 1


def test_activity_aggregates_prbs():
    f = ActiveUserFilter(window_subframes=10)
    f.update(_record(0, [(1, 10), (1, 6)]))  # two DCIs, same user
    f.update(_record(1, [(1, 8)]))
    act = f._activity[1]
    assert act.active_subframes == 2
    assert act.total_prbs == 24
    assert act.average_prbs == 12.0


def test_window_validation():
    import pytest
    with pytest.raises(ValueError):
        ActiveUserFilter(window_subframes=0)
