"""Emulated cellular control-channel decoder (§5 of the paper).

The paper's prototype decodes each cell's physical control channel on a
USRP software-defined radio, blind-searching every candidate message
position and all ten DCI formats until a CRC passes.  Our substrate
already produces decoded :class:`~repro.phy.dci.SubframeRecord` streams,
so this class emulates the decoder *interface and cost model*: it
forwards records (optionally after a configurable decode latency) and
keeps the blind-search statistics the paper's §7 power discussion cites
(messages per subframe, search attempts).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..phy.dci import SubframeRecord

#: DCI formats defined by the 3GPP standard the decoder must try (§5).
N_DCI_FORMATS = 10
#: Candidate control-channel positions searched per subframe.
N_SEARCH_POSITIONS = 16


class ControlChannelDecoder:
    """One cell's decoder feeding a fusion/estimation sink."""

    #: Checkpointing: the sink callable is rebuilt monitor wiring.
    SNAPSHOT_SKIP = ("sink",)

    def __init__(self, cell_id: int,
                 sink: Callable[[SubframeRecord], None],
                 decode_latency_subframes: int = 0) -> None:
        if decode_latency_subframes < 0:
            raise ValueError("latency must be non-negative")
        self.cell_id = cell_id
        self.sink = sink
        self.decode_latency_subframes = decode_latency_subframes
        self._pending: list[SubframeRecord] = []
        self.subframes_decoded = 0
        self.messages_decoded = 0
        self.search_attempts = 0

    def on_subframe(self, record: SubframeRecord) -> None:
        """Entry point: attach this to the cell's control channel."""
        if record.cell_id != self.cell_id:
            raise ValueError(
                f"decoder for cell {self.cell_id} received record for "
                f"cell {record.cell_id}")
        self.subframes_decoded += 1
        self.messages_decoded += len(record.messages)
        # Blind-search cost model: every occupied position costs up to
        # N_DCI_FORMATS format trials; empty positions cost one look.
        occupied = len(record.messages)
        self.search_attempts += (occupied * N_DCI_FORMATS
                                 + (N_SEARCH_POSITIONS - occupied))
        if self.decode_latency_subframes == 0:
            self.sink(record)
            return
        self._pending.append(record)
        if len(self._pending) > self.decode_latency_subframes:
            self.sink(self._pending.pop(0))

    #: Never called: the second ``monitor.ingest`` target that
    #: ``bench/trace.py``'s ``CALL_SPANS`` still names, kept as an alias so
    #: ``bench/`` needs no edit; the next ``benchmark`` PR removes it.
    ingest_batch = on_subframe

    def flush(self) -> None:
        """Drain the latency buffer at end of stream.

        With ``decode_latency_subframes > 0`` the last records of a run
        would otherwise sit in ``_pending`` forever; the monitor
        teardown path calls this so every decoded subframe reaches the
        sink exactly once.
        """
        pending, self._pending = self._pending, []
        for record in pending:
            self.sink(record)

    @property
    def mean_messages_per_subframe(self) -> float:
        """Average decoded control messages per subframe (§7 figure)."""
        if self.subframes_decoded == 0:
            return 0.0
        return self.messages_decoded / self.subframes_decoded


class MessageFusion:
    """Align decoded records from multiple cells by subframe index (§5).

    Emits ``{cell_id: record}`` snapshots, one per subframe, once every
    subscribed cell has reported that subframe (or as soon as a later
    subframe arrives, so a stalled decoder cannot block the pipeline).
    """

    SNAPSHOT_SKIP = ("sink",)

    def __init__(self, cell_ids: list[int],
                 sink: Callable[[dict[int, SubframeRecord]], None]) -> None:
        if not cell_ids:
            raise ValueError("need at least one cell")
        self.cell_ids = set(cell_ids)
        self.sink = sink
        self._buffers: dict[int, dict[int, SubframeRecord]] = {}
        self.emitted = 0

    def on_record(self, record: SubframeRecord) -> None:
        if record.cell_id not in self.cell_ids:
            raise ValueError(f"unsubscribed cell {record.cell_id}")
        bucket = self._buffers.setdefault(record.subframe, {})
        bucket[record.cell_id] = record
        if len(bucket) == len(self.cell_ids):
            self._emit(record.subframe)
        else:
            # Flush any strictly older, incomplete subframes.
            for subframe in sorted(self._buffers):
                if subframe < record.subframe - 1:
                    self._emit(subframe)

    def flush(self) -> None:
        """Emit every buffered (possibly incomplete) subframe, in order.

        Called at end of stream, after the per-cell decoders have
        flushed their own latency buffers, so a run's final subframes
        are not silently lost.
        """
        for subframe in sorted(self._buffers):
            self._emit(subframe)

    def _emit(self, subframe: int) -> None:
        bucket = self._buffers.pop(subframe)
        self.emitted += 1
        self.sink(bucket)
