"""Tests for the multi-cell PBE monitor."""

import pytest

from repro.monitor.pbe import SECONDARY_INACTIVE_TIMEOUT, PbeMonitor
from repro.phy.dci import DciMessage, SubframeRecord

OWN = 100


def _monitor(cells={0: 100, 1: 50}, primary=0, rate=1000, ber=1e-6):
    return PbeMonitor(OWN, dict(cells), primary_cell=primary,
                      own_rate_hint=lambda: (rate, ber))


def _feed(monitor, subframe, per_cell):
    """per_cell: {cell_id: [(rnti, prbs, bpp), ...]}"""
    for cell_id, allocations in per_cell.items():
        rec = SubframeRecord(subframe, cell_id,
                             monitor.estimators[cell_id].total_prbs)
        for rnti, prbs, bpp in allocations:
            rec.messages.append(DciMessage(subframe, cell_id, rnti, prbs,
                                           12, 2, tbs_bits=prbs * bpp))
        monitor.decoder_callback(cell_id)(rec)


def test_requires_primary_configured():
    with pytest.raises(ValueError):
        PbeMonitor(OWN, {1: 50}, primary_cell=0,
                   own_rate_hint=lambda: (1000, 1e-6))


def test_primary_only_until_secondary_grant():
    m = _monitor()
    for sf in range(10):
        _feed(m, sf, {0: [(OWN, 50, 1000)], 1: []})
    assert m.active_cells() == [0]


def test_secondary_joins_after_grant_and_ages_out():
    m = _monitor()
    for sf in range(5):
        _feed(m, sf, {0: [(OWN, 50, 1000)], 1: [(OWN, 20, 1000)]})
    assert set(m.active_cells()) == {0, 1}
    # No grants on cell 1 for longer than the timeout -> aged out.
    for sf in range(5, 10 + SECONDARY_INACTIVE_TIMEOUT):
        _feed(m, sf, {0: [(OWN, 50, 1000)], 1: []})
    assert m.active_cells() == [0]


def test_activation_event_flag_is_one_shot():
    m = _monitor()
    _feed(m, 0, {0: [(OWN, 50, 1000)], 1: []})
    m.report(10)  # consume any initial flag
    for sf in range(1, 4):
        _feed(m, sf, {0: [(OWN, 50, 1000)], 1: [(OWN, 10, 1000)]})
    report = m.report(10)
    assert report.carrier_activated
    assert not m.report(10).carrier_activated  # consumed


def test_capacity_sums_active_cells():
    m = _monitor()
    for sf in range(40):
        _feed(m, sf, {0: [(OWN, 100, 1000)], 1: [(OWN, 50, 1000)]})
    report = m.report(40)
    assert report.physical_capacity == pytest.approx(150_000, rel=0.01)
    assert report.transport_capacity < report.physical_capacity
    assert set(report.users_per_cell) == {0, 1}
    # bits/subframe -> bits/s is a factor 1000.
    assert report.transport_capacity_bps == pytest.approx(
        report.transport_capacity * 1000)


def test_transport_below_physical_and_fair_consistent():
    m = _monitor()
    for sf in range(40):
        _feed(m, sf, {0: [(OWN, 60, 1000), (7, 40, 800)], 1: []})
    report = m.report(40)
    assert report.transport_fair_share <= report.fair_share
    assert report.fair_share == pytest.approx(1000 * 100 / 2)


def test_report_before_any_data():
    m = _monitor()
    report = m.report(40)
    assert report.physical_capacity == 0.0
    assert report.active_cells == [0]


def test_report_staleness_and_confidence_decay():
    m = _monitor(cells={0: 100})
    for sf in range(40):
        _feed(m, sf, {0: [(OWN, 100, 1000)]})
    fresh = m.report(40, now_subframe=40)
    assert fresh.staleness_subframes == 1
    assert fresh.confidence > 0.9
    assert not fresh.is_stale
    # The decoder goes dark; the UE's subframe clock keeps running.
    stale = m.report(40, now_subframe=200)
    assert stale.staleness_subframes == 161
    assert stale.confidence == 0.0
    assert stale.is_stale
    # Without a caller clock the report cannot know it is stale.
    assert m.report(40).staleness_subframes == 0


def test_report_low_window_coverage_flags_stale():
    m = _monitor(cells={0: 100})
    _feed(m, 0, {0: [(OWN, 100, 1000)]})
    # One sample in a 40-subframe window after a long gap: the window
    # is mostly holes even though the last snapshot is recent.
    _feed(m, 200, {0: [(OWN, 100, 1000)]})
    report = m.report(40, now_subframe=201)
    assert report.confidence < 0.25
    assert report.is_stale


def test_monitor_counts_decode_gaps():
    m = _monitor(cells={0: 100})
    for sf in range(10):
        _feed(m, sf, {0: [(OWN, 100, 1000)]})
    assert m.gap_events == 0
    for sf in range(30, 35):  # 20-subframe hole
        _feed(m, sf, {0: [(OWN, 100, 1000)]})
    for sf in range(50, 52):  # second hole
        _feed(m, sf, {0: [(OWN, 100, 1000)]})
    assert m.gap_events == 2
    assert m.missed_subframes == 20 + 15


def test_one_sided_feed_through_decoder_callback_fuses_partial_snapshots():
    """``decoder_callback`` wired to one cell of two is a partial
    stream, not an error: each record is folded at once, and a subframe
    missing a cell closes when the next subframe's record arrives or at
    the next report."""
    m = _monitor()
    for sf in range(4):
        _feed(m, sf, {0: [(OWN, 50, 1000)]})
    assert m.estimators[0].last_subframe == 3   # folded on arrival
    assert m.estimators[1].last_subframe == -1  # never reported
    assert m.decoders[0].subframes_decoded == 4
    assert m.last_subframe == 2                 # subframe 3 still open
    assert m.gap_events == 0
    assert m.report(10).subframe == 3           # the report closes it
    assert m.last_subframe == 3
