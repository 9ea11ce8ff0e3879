"""The PBE measurement module: fused multi-cell capacity reports.

:class:`PbeMonitor` is the mobile-side physical-layer measurement API
the paper argues for (§1): it owns one control-channel decoder per
configured cell, fuses their outputs by subframe, tracks which cells
are currently activated for this user, and on demand produces a
:class:`MonitorReport` containing the available capacity ``Cp``, the
fair share ``Cf`` (Eqns. 1-3) and their transport-layer translations
(Eqn. 5) for the congestion-control client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net.units import SUBFRAME_US, US_PER_S
from ..phy.dci import SubframeBatch, SubframeRecord
from .capacity import CellCapacityEstimator, CellEstimate
from .decoder import ControlChannelDecoder, MessageFusion
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
    #: Subframes elapsed since the last fused decoder snapshot (0 when
    #: the caller supplied no clock, or the stream is current).
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

    #: Checkpointing: the rate hint is a rebuilt-wiring closure, the
    #: translation table and report memo are pure caches (identical
    #: values recompute on demand).
    SNAPSHOT_SKIP = ("own_rate_hint", "translation", "_report_memo")

    def _after_restore(self) -> None:
        self._report_memo = None

    def __init__(self, own_rnti: int, cell_prbs: dict[int, int],
                 primary_cell: int,
                 own_rate_hint: Callable[[], tuple[int, float]],
                 user_window_subframes: int = 40,
                 decode_latency_subframes: int = 0,
                 filter_control_users: bool = True,
                 averaging_window_override: Optional[int] = None) -> None:
        """``cell_prbs`` maps every *configured* cell id to its PRB count.

        ``own_rate_hint()`` returns ``(bits_per_prb, ber)`` from the
        UE's local channel measurements — used when the user has no
        decoded allocation of its own to read its MCS from.

        Ablation knobs: ``filter_control_users=False`` counts every
        detected user in N; ``averaging_window_override`` replaces the
        RTprop averaging window (1 = instantaneous estimates).

        :meth:`decoder_callback` buffers decoded subframes as a columnar
        :class:`~repro.phy.dci.SubframeBatch` per cell and folds whole
        blocks into the estimators on demand — byte-identical to the
        per-record path (``decoders[cell].on_subframe`` → fusion), which
        ``decode_latency_subframes > 0`` selects because its timing
        semantics are inherently per-record, and which the fault
        injectors feed directly.
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
                cell_id, total, own_rnti, user_window_subframes,
                filter_control_users=filter_control_users)
            for cell_id, total in cell_prbs.items()}
        self.fusion = MessageFusion(list(cell_prbs), self._on_snapshot)
        self.decoders = {
            cell_id: ControlChannelDecoder(
                cell_id, self.fusion.on_record, decode_latency_subframes)
            for cell_id in cell_prbs}
        self.translation = TranslationTable()
        self._last_subframe = -1
        self._activation_pending = False
        self._previously_active: set[int] = {primary_cell}
        #: Decode-gap telemetry: distinct discontinuities in the fused
        #: snapshot stream, and total subframes never fused.
        self._gap_events = 0
        self._missed_subframes = 0
        self.batch_ingest = decode_latency_subframes == 0
        #: Configured cells in attachment (= engine tick) order.
        self._cell_order = list(cell_prbs)
        self._batches = {
            cell_id: SubframeBatch(cell_id, total)
            for cell_id, total in cell_prbs.items()} \
            if self.batch_ingest else {}
        #: One ``(rate, ber)`` hint per buffered subframe, captured the
        #: moment the subframe's last cell reported — exactly when the
        #: scalar fusion stage would have called ``own_rate_hint``.
        self._pending_hints: list[tuple[int, float]] = []
        self._arrivals = 0
        #: Total subframes ever folded in (memo version stamp).
        self._ingest_version = 0
        self._report_memo: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Telemetry reads drain any buffered subframes first so external
    # observers always see the same values the scalar path would show.
    @property
    def last_subframe(self) -> int:
        """Latest subframe folded into the estimators."""
        if self._pending_hints:
            self._drain()
        return self._last_subframe

    @last_subframe.setter
    def last_subframe(self, value: int) -> None:
        self._last_subframe = value

    @property
    def gap_events(self) -> int:
        """Distinct discontinuities seen in the decoded stream."""
        if self._pending_hints:
            self._drain()
        return self._gap_events

    @property
    def missed_subframes(self) -> int:
        """Total subframes never decoded (sum over all gaps)."""
        if self._pending_hints:
            self._drain()
        return self._missed_subframes

    # ------------------------------------------------------------------
    def decoder_callback(self, cell_id: int):
        """The callable to attach to one cell's control channel."""
        if not self.batch_ingest:
            return self.decoders[cell_id].on_subframe
        append = self._batches[cell_id].append_record
        n_cells = len(self._cell_order)
        hints = self._pending_hints
        hint = self.own_rate_hint

        def on_subframe(record: SubframeRecord) -> None:
            append(record)
            self._arrivals += 1
            if self._arrivals == n_cells:
                self._arrivals = 0
                hints.append(hint())

        return on_subframe

    def _drain(self) -> None:
        """Fold every buffered subframe into the estimators.

        Each buffered subframe's message columns are scanned exactly
        once, producing the per-subframe figures
        (:meth:`CellCapacityEstimator.update_block` inputs) plus the
        carrier-activation / gap-telemetry replay the scalar
        ``_on_snapshot`` performs per snapshot — same final state,
        no per-record dispatch.
        """
        hints = self._pending_hints
        n = len(hints)
        if n == 0:
            return
        order = self._cell_order
        batches = [self._batches[c] for c in order]
        subframes = batches[0].subframes
        for cell_id, b in zip(order, batches):
            if len(b) != n or b.subframes != subframes:
                raise RuntimeError(
                    f"cell {cell_id} buffered {len(b)} subframes where "
                    f"{n} were completed by all {len(order)} configured "
                    f"cells (or numbers them unlike cell {order[0]}): "
                    "decoder_callback() needs every cell to report every "
                    "subframe; attach monitor.decoders[cell].on_subframe "
                    "instead, the per-record path that fuses partial "
                    "streams")
        own = self.own_rnti
        if n == 1:
            # Steady state under ACK clocking: each feedback drains the
            # single subframe buffered since the previous one, so skip
            # the block machinery (per-cell column lists, zip folds)
            # and do the one-row scan directly.
            sf = subframes[0]
            rate_hint, ber = hints[0]
            primary = self.primary_cell
            active = {primary}
            for cell_id, batch in zip(order, batches):
                prbs_col, rnti_col = batch.prbs, batch.rnti
                tbs_col = batch.tbs_bits
                own_prbs = 0
                own_rate = rate_hint
                allocated = 0
                alloc: dict[int, int] = {}
                for i in range(len(prbs_col)):
                    p = prbs_col[i]
                    allocated += p
                    if p > 0:
                        r = rnti_col[i]
                        alloc[r] = alloc.get(r, 0) + p
                        if r == own:
                            own_prbs += p
                            own_rate = max(1, tbs_col[i] // p)
                est = self.estimators[cell_id]
                est.update_one(sf, own_prbs,
                               batch.total_prbs - allocated, own_rate,
                               ber, alloc)
                self.decoders[cell_id].ingest_batch(batch)
                if cell_id != primary:
                    g = est.last_own_grant_subframe
                    if g >= 0 and sf - g <= SECONDARY_INACTIVE_TIMEOUT:
                        active.add(cell_id)
                batch.clear()
            last = self._last_subframe
            if last >= 0 and sf > last + 1:
                self._gap_events += 1
                self._missed_subframes += sf - last - 1
            self._last_subframe = sf
            if active - self._previously_active:
                self._activation_pending = True
            self._previously_active = active
            self._ingest_version += 1
            hints.clear()
            return
        own_prbs_by_cell: dict[int, list[int]] = {}
        pre_grant = {c: self.estimators[c].last_own_grant_subframe
                     for c in order}
        for cell_id, batch in zip(order, batches):
            total = batch.total_prbs
            counts = batch.msg_counts
            rnti_col, prbs_col = batch.rnti, batch.prbs
            tbs_col = batch.tbs_bits
            own_prbs_list: list[int] = []
            idle_list: list[int] = []
            rate_list: list[int] = []
            ber_list: list[float] = []
            alloc_list: list[dict[int, int]] = []
            base = 0
            for k in range(n):
                own_prbs = 0
                own_rate = hints[k][0]
                allocated = 0
                alloc: dict[int, int] = {}
                for i in range(base, base + counts[k]):
                    p = prbs_col[i]
                    allocated += p
                    if p > 0:
                        r = rnti_col[i]
                        alloc[r] = alloc.get(r, 0) + p
                        if r == own:
                            own_prbs += p
                            own_rate = max(1, tbs_col[i] // p)
                base += counts[k]
                own_prbs_list.append(own_prbs)
                # The engine never over-allocates, so idle needs no
                # non-negativity check here (the scalar path's
                # record.idle_prbs validation is construction-time).
                idle_list.append(total - allocated)
                rate_list.append(own_rate)
                ber_list.append(hints[k][1])
                alloc_list.append(alloc)
            self.estimators[cell_id].update_block(
                subframes, own_prbs_list, idle_list, rate_list,
                ber_list, alloc_list)
            self.decoders[cell_id].ingest_batch(batch)
            own_prbs_by_cell[cell_id] = own_prbs_list

        # Replay the per-snapshot bookkeeping: gap telemetry, and the
        # carrier-activation edge detection (a secondary may time out
        # and re-activate *within* a block, so end-state comparison is
        # not enough — walk every subframe).
        primary = self.primary_cell
        prev_active = self._previously_active
        pending = self._activation_pending
        last = self._last_subframe
        gap_events, missed = self._gap_events, self._missed_subframes
        secondaries = [c for c in order if c != primary]
        grant_age = {c: pre_grant[c] for c in secondaries}
        for k in range(n):
            sf = subframes[k]
            if last >= 0 and sf > last + 1:
                gap_events += 1
                missed += sf - last - 1
            last = sf
            active = {primary}
            for c in secondaries:
                if own_prbs_by_cell[c][k] > 0:
                    grant_age[c] = sf
                g = grant_age[c]
                if g >= 0 and sf - g <= SECONDARY_INACTIVE_TIMEOUT:
                    active.add(c)
            if active - prev_active:
                pending = True
            prev_active = active
        self._last_subframe = last
        self._gap_events, self._missed_subframes = gap_events, missed
        self._activation_pending = pending
        self._previously_active = prev_active
        self._ingest_version += n
        for b in batches:
            b.clear()
        hints.clear()

    def set_primary(self, cell_id: int) -> None:
        """Re-anchor on a new primary cell after a handover (§1).

        The UE's RRC layer knows its serving cell; the monitor just
        follows.  The target cell must be among the configured
        decoders (a phone can only decode bands it is tuned to).
        """
        if cell_id not in self.estimators:
            raise ValueError(f"cell {cell_id} has no decoder configured")
        self._drain()
        self.primary_cell = cell_id
        self._previously_active = {cell_id}
        self._activation_pending = False
        self._report_memo = None

    def _on_snapshot(self, records: dict[int, SubframeRecord]) -> None:
        rate, ber = self.own_rate_hint()
        snapshot_subframe = self._last_subframe
        for cell_id, record in records.items():
            self.estimators[cell_id].update(record, rate, ber)
            snapshot_subframe = max(snapshot_subframe, record.subframe)
        if (self._last_subframe >= 0
                and snapshot_subframe > self._last_subframe + 1):
            self._gap_events += 1
            self._missed_subframes += (snapshot_subframe
                                       - self._last_subframe - 1)
        self._last_subframe = snapshot_subframe
        self._ingest_version += 1
        active = set(self.active_cells())
        newly_active = active - self._previously_active
        if newly_active:
            self._activation_pending = True
        self._previously_active = active

    def flush(self) -> None:
        """End-of-stream teardown: drain decoder latency buffers.

        With ``decode_latency_subframes > 0`` each per-cell decoder
        holds its last records in a pending queue; flushing pushes them
        through the fusion stage (which then emits its own residual,
        possibly incomplete, subframes) so the final estimates account
        for every decoded subframe.
        """
        self._drain()
        for decoder in self.decoders.values():
            decoder.flush()
        self.fusion.flush()

    # ------------------------------------------------------------------
    def active_cells(self) -> list[int]:
        """Cells currently activated for this user, primary first.

        The primary cell is always active; a secondary counts as active
        while the user has received a grant on it recently (its
        deactivation is not announced to the UE in a way our decoder
        models, so we age it out — §3's deactivation is driven by the
        network observing unused capacity).
        """
        if self._pending_hints:
            self._drain()
        cells = [self.primary_cell]
        for cell_id, est in self.estimators.items():
            if cell_id == self.primary_cell:
                continue
            age = self._last_subframe - est.last_own_grant_subframe
            if (est.last_own_grant_subframe >= 0
                    and age <= SECONDARY_INACTIVE_TIMEOUT):
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
        if self._pending_hints:
            self._drain()
        window = max(1, rtprop_subframes)
        if self.averaging_window_override is not None:
            window = self.averaging_window_override
        # Reports are pure in (ingested stream, window, clock, primary)
        # except for the consumed carrier_activated edge — so a repeat
        # call with the same key returns the memoized report, and a
        # pending activation simply skips the memo (the *next* identical
        # call re-computes with the flag consumed, then memoizes).
        key = (self._ingest_version, window, now_subframe,
               self.primary_cell)
        memo = self._report_memo
        if (memo is not None and memo[0] == key
                and not self._activation_pending):
            return memo[1]
        active = self.active_cells()
        estimates: list[CellEstimate] = [
            self.estimators[cell_id].estimate(window)
            for cell_id in active]
        # §4.1: per-cell rates are computed separately and summed, so the
        # Eqn. 5 TB-size term uses each carrier's own transport-block
        # size rather than pretending the aggregate is one giant TB.
        # (One fused left-to-right pass: report() runs once per
        # feedback, and the separate genexpr sums were measurable.)
        transport_rate = self.translation.transport_rate
        cp = cf = ct = cf_t = cov = 0.0
        for e in estimates:
            cp += e.physical_capacity
            cf += e.fair_share
            ct += transport_rate(e.physical_capacity, e.mean_ber)
            cf_t += transport_rate(e.fair_share, e.mean_ber)
            cov += e.coverage
        activated = self._activation_pending
        self._activation_pending = False
        staleness = 0
        if now_subframe is not None and self._last_subframe >= 0:
            staleness = max(0, now_subframe - self._last_subframe)
        coverage = cov / len(estimates) if estimates else 0.0
        decay = max(0.0, 1.0 - staleness / CONFIDENCE_HORIZON_SUBFRAMES)
        report = MonitorReport(
            subframe=self._last_subframe,
            physical_capacity=cp, transport_capacity=ct,
            fair_share=cf, transport_fair_share=cf_t,
            users_per_cell={e.cell_id: e.users for e in estimates},
            active_cells=active, carrier_activated=activated,
            per_cell=estimates,
            staleness_subframes=staleness,
            confidence=coverage * decay)
        # Only activation-free reports are repeatable (the flag is a
        # consumed edge); callers treat reports as read-only, like the
        # memoized CellEstimates they embed.
        self._report_memo = None if activated else (key, report)
        return report
