"""The monitor's one ingest stage: a decoded record reaches its estimator.

``PbeMonitor`` folds every decoded record into its own cell's estimator
the moment it arrives, and closes the subframe's bookkeeping (gap
telemetry, the active-cell list, the carrier-activation edge) once:
when every configured cell has reported the subframe, when a record for
a later subframe arrives, or at the next ``report()``.  Multi-cell
byte identity rests on that rule, so it is held here three ways: the
per-cell outage feed that once folded a cell out of order, the one
activation edge a close-per-record rule gets wrong, and a randomized
comparison against an oracle that closes each subframe only after all
of its records.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.pbe import SECONDARY_INACTIVE_TIMEOUT, PbeMonitor
from repro.phy.dci import DciMessage, SubframeRecord

OWN = 100
TOTAL_PRBS = 50


def _monitor(n_cells: int) -> PbeMonitor:
    return PbeMonitor(OWN, {cell: TOTAL_PRBS for cell in range(n_cells)},
                      primary_cell=0, own_rate_hint=lambda: (700, 1e-6))


def _deliver(monitor: PbeMonitor, subframe: int, cell: int,
             granted: bool = False) -> None:
    record = SubframeRecord(subframe, cell, TOTAL_PRBS)
    record.messages.append(DciMessage(subframe, cell, 7, 10, 12, 1,
                                      tbs_bits=4_000))
    if granted:
        record.messages.append(DciMessage(subframe, cell, OWN, 20, 12, 1,
                                          tbs_bits=9_000))
    monitor.decoder_callback(cell)(record)


def _folded(monitor: PbeMonitor, cell: int) -> list[int]:
    return [sample.subframe
            for sample in monitor.estimators[cell].samples()]


def test_a_subframe_one_cell_missed_is_folded_in_order_without_a_gap():
    """Subframe 9 from both cells, 10 from cell 0 only, then 11 and 12
    from both: cell 0 folds 9, 10, 11, 12, and nothing was missed."""
    m = _monitor(2)
    for subframe, cells in ((9, (0, 1)), (10, (0,)), (11, (0, 1)),
                            (12, (0, 1))):
        for cell in cells:
            _deliver(m, subframe, cell)
    assert _folded(m, 0) == [9, 10, 11, 12]
    assert _folded(m, 1) == [9, 11, 12]
    assert m.gap_events == 0 and m.missed_subframes == 0
    assert m.last_subframe == 12


def test_a_secondary_granted_again_in_its_timeout_subframe_is_no_edge():
    """The secondary's last grant is exactly ``TIMEOUT + 1`` subframes
    old when the primary's record arrives, and the secondary's own
    record in the same subframe grants it again.  Closed after both
    records, the secondary never left the active set: no edge.  Closed
    after the primary's record alone, it would age out and rejoin."""
    m = _monitor(2)
    _deliver(m, 0, 0)
    _deliver(m, 0, 1, granted=True)
    for subframe in range(1, SECONDARY_INACTIVE_TIMEOUT + 1):
        _deliver(m, subframe, 0)
        _deliver(m, subframe, 1)
    assert m.report(40).carrier_activated    # the first grant: an edge
    assert m.active_cells() == [0, 1]
    edge = SECONDARY_INACTIVE_TIMEOUT + 1
    _deliver(m, edge, 0)
    _deliver(m, edge, 1, granted=True)
    report = m.report(40)
    assert report.active_cells == [0, 1]
    assert not report.carrier_activated


# ---------------------------------------------------------------------------
# Randomized: the monitor against a close-after-all-records oracle
# ---------------------------------------------------------------------------

class _Oracle:
    """Closes each subframe after every one of its records, by rule."""

    def __init__(self) -> None:
        self.last = -1
        self.granted: dict[int, int] = {}
        self.previously_active = {0}
        self.events: list[tuple] = []

    def close(self, subframe: int, grants: dict[int, bool]) -> None:
        for cell, granted in grants.items():
            if granted:
                self.granted[cell] = subframe
        if self.last >= 0 and subframe > self.last + 1:
            self.events.append(("gap", subframe, subframe - self.last - 1))
        self.last = subframe
        active = {0} | {cell for cell, at in self.granted.items()
                        if subframe - at <= SECONDARY_INACTIVE_TIMEOUT}
        if not self.previously_active.issuperset(active):
            self.events.append(("activation", subframe))
        self.previously_active = active


_STEP = st.tuples(
    # Subframes since the previous step: mostly the next one, sometimes
    # a hole every cell misses, sometimes one around the timeout.
    st.one_of(st.just(1), st.just(1), st.integers(2, 6),
              st.integers(SECONDARY_INACTIVE_TIMEOUT - 2,
                          SECONDARY_INACTIVE_TIMEOUT + 3)),
    st.lists(st.tuples(st.booleans(), st.booleans()),
             min_size=3, max_size=3))


@settings(max_examples=150, deadline=None)
@given(n_cells=st.integers(2, 3),
       steps=st.lists(_STEP, min_size=1, max_size=40))
def test_per_record_fold_matches_the_close_after_all_records_oracle(
        n_cells, steps):
    m = _monitor(n_cells)
    oracle = _Oracle()
    delivered: dict[int, list[int]] = {cell: [] for cell in range(n_cells)}
    seen: list[tuple] = []
    gaps = missed = 0
    last = m.last_subframe

    def observe() -> None:
        nonlocal gaps, missed, last
        assert m.last_subframe >= last
        last = m.last_subframe
        if m.gap_events != gaps:
            assert m.gap_events == gaps + 1
            seen.append(("gap", m.last_subframe,
                         m.missed_subframes - missed))
            gaps, missed = m.gap_events, m.missed_subframes
        if m._activation_pending:      # consume the edge, as report() does
            seen.append(("activation", m.last_subframe))
            m._activation_pending = False

    subframe = -1
    for advance, per_cell in steps:
        subframe += advance
        grants = {}
        for cell in range(n_cells):
            dropped, granted = per_cell[cell]
            if dropped:
                continue
            _deliver(m, subframe, cell, granted=granted)
            delivered[cell].append(subframe)
            grants[cell] = granted
            observe()
        if grants:
            oracle.close(subframe, grants)
    carrier_activated = m.report(40).carrier_activated  # closes the last
    observe()
    if carrier_activated:
        seen.append(("activation", m.last_subframe))

    window = m.estimators[0].MAX_WINDOW
    for cell in range(n_cells):
        assert _folded(m, cell) == delivered[cell][-window:]
    assert seen == oracle.events
    assert m.last_subframe == oracle.last
