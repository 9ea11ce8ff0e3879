"""Lossy control-channel decoding (§5's imperfect blind search).

:class:`LossyDecoder` wraps one cell's
:class:`~repro.monitor.decoder.ControlChannelDecoder` and impairs the
record stream the way a real SDR decoder does:

* **missed messages** — each DCI message independently fails its CRC
  with ``dci_miss_rate`` (the monitor then under-counts occupancy);
* **false positives** — with ``dci_false_rate`` per subframe a bogus
  CRC pass invents a ghost user, allocated only within the subframe's
  idle PRBs so the record stays physically consistent;
* **burst outages** — a Gilbert-Elliott good/bad chain
  (``outage_enter_rate`` / ``outage_mean_subframes``) plus explicitly
  scheduled ``outages`` drop entire subframes, modelling CRC-failure
  runs, retunes and handover gaps.

Records that no fault touches are forwarded *object-identical*, so a
zero-probability spec is indistinguishable from no injector at all.
"""

from __future__ import annotations

from ..phy.dci import DciMessage, SubframeRecord
from ..monitor.decoder import ControlChannelDecoder
from .spec import FaultSpec

#: RNTI base for synthesized false-positive (ghost) users.
GHOST_RNTI_BASE = 60_000
#: Largest PRB grant a false positive may fabricate.
MAX_GHOST_PRBS = 8
#: MCS index range a bogus CRC pass may land on.
MAX_GHOST_MCS = 28


class LossyDecoder:
    """Impairment wrapper around one cell's control-channel decoder."""

    #: Checkpointing: the wrapped decoder is snapshotted through the
    #: monitor; the fault spec is immutable config.
    SNAPSHOT_SKIP = ("decoder", "spec")

    def __init__(self, decoder: ControlChannelDecoder,
                 spec: FaultSpec) -> None:
        self.decoder = decoder
        self.spec = spec
        self._rng = spec.rng("dci", decoder.cell_id)
        self._in_burst = False
        self._exit_rate = 1.0 / spec.outage_mean_subframes

        self.records_seen = 0
        self.records_dropped = 0
        self.messages_missed = 0
        self.false_positives = 0
        self.outage_subframes = 0

    @property
    def cell_id(self) -> int:
        return self.decoder.cell_id

    # ------------------------------------------------------------------
    def _scheduled_outage(self, subframe: int) -> bool:
        return any(start <= subframe < start + duration
                   for start, duration in self.spec.outages)

    def _advance_burst(self) -> bool:
        """Step the Gilbert-Elliott chain one subframe; True = bad."""
        if self.spec.outage_enter_rate <= 0:
            return False
        if self._in_burst:
            if self._rng.random() < self._exit_rate:
                self._in_burst = False
        elif self._rng.random() < self.spec.outage_enter_rate:
            self._in_burst = True
        return self._in_burst

    def _synthesize_ghost(self, record: SubframeRecord,
                          free_prbs: int) -> DciMessage:
        rng = self._rng
        n_prbs = min(free_prbs, rng.randint(1, MAX_GHOST_PRBS))
        mcs = rng.randint(0, MAX_GHOST_MCS)
        return DciMessage(
            subframe=record.subframe, cell_id=record.cell_id,
            rnti=GHOST_RNTI_BASE + rng.randrange(1_000),
            n_prbs=n_prbs, mcs=mcs, spatial_streams=1,
            tbs_bits=n_prbs * rng.randrange(100, 1_000))

    # ------------------------------------------------------------------
    def on_subframe(self, record: SubframeRecord) -> None:
        """Entry point: attach this to the cell's control channel."""
        self.records_seen += 1
        spec = self.spec
        burst = self._advance_burst()
        if burst or self._scheduled_outage(record.subframe):
            # Entire subframe fails to decode: nothing reaches the sink.
            self.records_dropped += 1
            self.outage_subframes += 1
            return

        messages = record.messages
        touched = False
        if spec.dci_miss_rate > 0 and messages:
            kept = [m for m in messages
                    if self._rng.random() >= spec.dci_miss_rate]
            if len(kept) != len(messages):
                self.messages_missed += len(messages) - len(kept)
                messages = kept
                touched = True
        if (spec.dci_false_rate > 0
                and self._rng.random() < spec.dci_false_rate):
            free = record.total_prbs - sum(m.n_prbs for m in messages)
            if free > 0:
                ghost = self._synthesize_ghost(record, free)
                messages = list(messages) + [ghost]
                self.false_positives += 1
                touched = True

        if not touched:
            self.decoder.on_subframe(record)
            return
        self.decoder.on_subframe(SubframeRecord(
            subframe=record.subframe, cell_id=record.cell_id,
            total_prbs=record.total_prbs, messages=list(messages)))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Impairment counters (for telemetry/results)."""
        return {
            "cell_id": self.cell_id,
            "records_seen": self.records_seen,
            "records_dropped": self.records_dropped,
            "messages_missed": self.messages_missed,
            "false_positives": self.false_positives,
            "outage_subframes": self.outage_subframes,
        }
