"""The PBE measurement module: summed multi-cell capacity reports.

:class:`PbeMonitor` is the mobile-side physical-layer measurement API
the paper argues for (§1): it owns one control-channel decoder per
configured cell, feeds each cell's estimator, tracks which cells
are currently activated for this user, and on demand produces a
:class:`MonitorReport` containing the available capacity ``Cp``, the
fair share ``Cf`` (Eqns. 1-3) and their transport-layer translations
(Eqn. 5) for the congestion-control client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net.units import SUBFRAME_US, US_PER_S
from ..phy.dci import SubframeRecord
from .capacity import CellCapacityEstimator, CellEstimate
from .decoder import ControlChannelDecoder
from .translation import TranslationTable

#: A secondary cell with no grant for this user for this many subframes
#: is considered deactivated by the network.
SECONDARY_INACTIVE_TIMEOUT = 300

#: A report older than this many subframes is flagged stale: the
#: decode stream has been silent longer than any scheduling artefact
#: can explain, so the estimate no longer tracks the cell.
STALE_AFTER_SUBFRAMES = 50
#: Confidence decays to zero over this much report staleness.
CONFIDENCE_HORIZON_SUBFRAMES = 100
#: Reports with confidence below this are flagged stale even when
#: recent (e.g. a heavily gapped averaging window).
MIN_CONFIDENCE = 0.25


@dataclass
class MonitorReport:
    """One capacity snapshot handed to the congestion-control client."""

    subframe: int
    #: Available physical capacity Cp, bits per subframe (Eqn. 3).
    physical_capacity: float
    #: Transport-layer translation Ct of Cp, bits per subframe (Eqn. 5).
    transport_capacity: float
    #: Fair-share physical capacity Cf, bits per subframe (Eqns. 1-2).
    fair_share: float
    #: Transport-layer translation of Cf.
    transport_fair_share: float
    #: Data users sharing each active cell ({cell_id: N_i}).
    users_per_cell: dict
    #: Cells currently activated for this user (primary first).
    active_cells: list
    #: True when a secondary cell was (re)activated since the last
    #: report — the client restarts its fair-share approach (§4.1).
    carrier_activated: bool
    per_cell: list
    #: Subframes elapsed since the last decoded subframe (0 when the
    #: caller supplied no clock, or the stream is current).
    staleness_subframes: int = 0
    #: How much to trust this report: window decode coverage decayed by
    #: staleness.  1.0 = gap-free and current, 0.0 = flying blind.
    confidence: float = 1.0

    @property
    def is_stale(self) -> bool:
        """True when the estimate should no longer drive the sender."""
        return (self.staleness_subframes > STALE_AFTER_SUBFRAMES
                or self.confidence < MIN_CONFIDENCE)

    @property
    def transport_capacity_bps(self) -> float:
        """Ct in bits/second (1 subframe = 1 ms)."""
        return self.transport_capacity * US_PER_S / SUBFRAME_US

    @property
    def transport_fair_share_bps(self) -> float:
        """Cf in bits/second."""
        return self.transport_fair_share * US_PER_S / SUBFRAME_US


class PbeMonitor:
    """Mobile-endpoint physical-layer bandwidth measurement module."""

    #: Checkpointing: the rate hint is rebuilt wiring; the translation
    #: table and active-cell list are caches that recompute on demand.
    SNAPSHOT_SKIP = ("own_rate_hint", "translation", "_active_cells")

    def _after_restore(self) -> None:
        self._active_cells = self.active_cells()

    def __init__(self, own_rnti: int, cell_prbs: dict[int, int],
                 primary_cell: int,
                 own_rate_hint: Callable[[], tuple[int, float]],
                 filter_control_users: bool = True,
                 averaging_window_override: Optional[int] = None) -> None:
        """``cell_prbs`` maps every *configured* cell id to its PRB count.

        ``own_rate_hint()`` returns ``(bits_per_prb, ber)`` from the
        UE's local channel measurements — used when the user has no
        decoded allocation of its own to read its MCS from.

        Ablation knobs: ``filter_control_users=False`` counts every
        detected user in N; ``averaging_window_override`` replaces the
        RTprop averaging window (1 = instantaneous estimates).

        Every decoded record, from the cell or a fault injector, goes
        ``decoders[cell].on_subframe`` → that cell's
        :meth:`CellCapacityEstimator.update`, at once.  The subframe's
        bookkeeping closes when every configured cell has reported it,
        a later subframe's record arrives, or :meth:`report` is called.
        """
        if primary_cell not in cell_prbs:
            raise ValueError("primary cell must be configured")
        if (averaging_window_override is not None
                and averaging_window_override < 1):
            raise ValueError("averaging window must be positive")
        self.own_rnti = own_rnti
        self.primary_cell = primary_cell
        self.own_rate_hint = own_rate_hint
        self.averaging_window_override = averaging_window_override
        self.estimators = {
            cell_id: CellCapacityEstimator(
                cell_id, total, own_rnti,
                filter_control_users=filter_control_users)
            for cell_id, total in cell_prbs.items()}
        self.decoders = {
            cell_id: ControlChannelDecoder(cell_id, self._on_record)
            for cell_id in cell_prbs}
        self.translation = TranslationTable()
        #: Latest subframe whose bookkeeping has closed.
        self.last_subframe = -1
        #: The newest record's subframe; records folded since the last
        #: close (0 = nothing open).
        self._subframe = -1
        self._pending = 0
        self._activation_pending = False
        self._previously_active: set[int] = {primary_cell}
        #: Decode-gap telemetry: distinct discontinuities in the closed
        #: subframe stream, and total subframes no cell decoded.
        self.gap_events = 0
        self.missed_subframes = 0
        #: ``active_cells()`` as of the last close or primary change
        #: (nothing else moves it), shared by the reports built on it.
        self._active_cells = self.active_cells()

    # ------------------------------------------------------------------
    def decoder_callback(self, cell_id: int):
        """The callable to attach to one cell's control channel."""
        return self.decoders[cell_id].on_subframe

    def set_primary(self, cell_id: int) -> None:
        """Re-anchor on a new primary cell after a handover (§1).

        The UE's RRC layer knows its serving cell; the monitor just
        follows.  The target cell must be among the configured
        decoders (a phone can only decode bands it is tuned to).
        """
        if cell_id not in self.estimators:
            raise ValueError(f"cell {cell_id} has no decoder configured")
        self.primary_cell = cell_id
        self._previously_active = {cell_id}
        self._activation_pending = False
        self._active_cells = self.active_cells()

    def _on_record(self, record: SubframeRecord) -> None:
        if record.subframe != self._subframe:
            if self._pending:
                self._close()
            self._subframe = record.subframe
        rate, ber = self.own_rate_hint()
        self.estimators[record.cell_id].update(record, rate, ber)
        self._pending += 1
        if self._pending == len(self.estimators):
            self._close()

    def _close(self) -> None:
        """Gap telemetry, active cells and the activation edge, once all
        of a subframe's records are in: a secondary aged out by the
        primary's record alone, then granted by its own, is no edge."""
        self._pending = 0
        subframe, last = self._subframe, self.last_subframe
        if last >= 0 and subframe > last + 1:
            self.gap_events += 1
            self.missed_subframes += subframe - last - 1
        self.last_subframe = max(last, subframe)
        active = self._active_cells = self.active_cells()
        if not self._previously_active.issuperset(active):
            self._activation_pending = True  # a cell newly active
        self._previously_active = set(active)

    # ------------------------------------------------------------------
    def active_cells(self) -> list[int]:
        """Cells currently activated for this user, primary first.

        The primary cell is always active; a secondary counts as active
        while the user has received a grant on it recently (its
        deactivation is not announced to the UE in a way our decoder
        models, so we age it out — §3's deactivation is driven by the
        network observing unused capacity).
        """
        primary, last = self.primary_cell, self.last_subframe
        cells = [primary]
        for cell_id, est in self.estimators.items():
            granted = est.last_own_grant_subframe
            if (cell_id != primary and granted >= 0
                    and last - granted <= SECONDARY_INACTIVE_TIMEOUT):
                cells.append(cell_id)
        return cells

    def report(self, rtprop_subframes: int,
               now_subframe: Optional[int] = None) -> MonitorReport:
        """Produce the capacity snapshot for the current subframe.

        ``rtprop_subframes`` sets the averaging window (§4.2.1: average
        over the most recent RTprop worth of subframes).

        ``now_subframe`` is the caller's wall clock (the UE knows the
        subframe count even when its decoder is dark); supplying it
        lets the report carry a staleness/confidence signal so the
        client can flag estimates that have outlived the decode stream.
        """
        window = max(1, rtprop_subframes)
        if self.averaging_window_override is not None:
            window = self.averaging_window_override
        if self._pending:
            self._close()
        activated = self._activation_pending
        active = self._active_cells
        estimators = self.estimators
        # §4.1: per-cell rates are computed separately and summed, so the
        # Eqn. 5 TB-size term uses each carrier's own transport-block
        # size rather than pretending the aggregate is one giant TB.
        # (One left-to-right pass over the active cells, which _close
        # already listed: report() runs once per feedback.)
        transport_rate = self.translation.transport_rate
        estimates: list[CellEstimate] = []
        users_per_cell = {}
        cp = cf = ct = cf_t = cov = 0.0
        for cell_id in active:
            e = estimators[cell_id].estimate(window)
            estimates.append(e)
            users_per_cell[cell_id] = e.users
            cp += e.physical_capacity
            cf += e.fair_share
            ct += transport_rate(e.physical_capacity, e.mean_ber)
            cf_t += transport_rate(e.fair_share, e.mean_ber)
            cov += e.coverage
        self._activation_pending = False
        staleness = 0
        if now_subframe is not None and self.last_subframe >= 0:
            staleness = max(0, now_subframe - self.last_subframe)
        coverage = cov / len(estimates) if estimates else 0.0
        decay = max(0.0, 1.0 - staleness / CONFIDENCE_HORIZON_SUBFRAMES)
        # Positional, in field order (keywords cost a measurable share);
        # callers treat the shared active-cell list as read-only.
        return MonitorReport(
            self.last_subframe, cp, ct, cf, cf_t, users_per_cell, active,
            activated, estimates, staleness, coverage * decay)
