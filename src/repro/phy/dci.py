"""Downlink control information (DCI) messages and subframe records.

The base station announces every user's bandwidth allocation (number and
position of PRBs), MCS, spatial-stream count and new-data indicator in a
control message on the physical control channel, once per subframe (§3).
PBE-CC's key primitive is that the mobile decodes *all* of these
messages — its own and other users' — to see the cell's full occupancy.

In this reproduction the scheduler emits :class:`DciMessage` objects and
groups them into a per-subframe :class:`SubframeRecord`; the emulated
decoder in :mod:`repro.monitor` consumes that stream, exactly like the
paper's SDR decoder consumes decoded control channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DciMessage:
    """One decoded downlink control message."""

    subframe: int          #: Subframe index (1 per millisecond).
    cell_id: int           #: Component carrier / cell identifier.
    rnti: int              #: Radio network temporary identifier (user id).
    n_prbs: int            #: Number of PRBs allocated this subframe.
    mcs: int               #: Modulation-and-coding-scheme index.
    spatial_streams: int   #: Number of MIMO spatial streams.
    tbs_bits: int          #: Transport block size, bits.
    new_data: bool = True  #: New-data indicator (False = retransmission).
    is_control: bool = False  #: Parameter-update (control-plane) traffic.

    def __post_init__(self) -> None:
        if self.n_prbs < 0:
            raise ValueError("PRB count must be non-negative")
        if self.tbs_bits < 0:
            raise ValueError("TBS must be non-negative")


@dataclass
class SubframeRecord:
    """Everything decoded from one cell's control channel in one subframe."""

    subframe: int
    cell_id: int
    total_prbs: int
    messages: list[DciMessage] = field(default_factory=list)

    @property
    def allocated_prbs(self) -> int:
        """PRBs granted to any user this subframe."""
        return sum(m.n_prbs for m in self.messages)

    @property
    def idle_prbs(self) -> int:
        """PRBs left unallocated this subframe (Eqn. 4 numerator term)."""
        idle = self.total_prbs - self.allocated_prbs
        if idle < 0:
            raise ValueError(
                f"over-allocated subframe {self.subframe} on cell "
                f"{self.cell_id}: {self.allocated_prbs}/{self.total_prbs}")
        return idle

    def prbs_for(self, rnti: int) -> int:
        """PRBs allocated to one user this subframe."""
        return sum(m.n_prbs for m in self.messages if m.rnti == rnti)

    def active_rntis(self) -> set[int]:
        """Users that received any allocation this subframe."""
        return {m.rnti for m in self.messages if m.n_prbs > 0}


class SubframeBatch:
    """Columnar (struct-of-arrays) block of one cell's decoded subframes.

    The per-record path hands one :class:`SubframeRecord` — a list of
    :class:`DciMessage` objects — per cell per subframe through a chain
    of Python callbacks.  A batch instead accumulates the same
    information as parallel plain-``int`` columns and lets the
    consumers (:mod:`repro.monitor`) fold whole blocks at once, without
    per-record dispatch or per-message attribute access.

    Layout: ``subframes[k]`` / ``msg_counts[k]`` describe row ``k``; its
    messages occupy the next ``msg_counts[k]`` entries of the flat
    message columns (``rnti``, ``prbs``, ``mcs``, ``streams``, ``ndi``,
    ``tbs_bits``, ``is_control``), in decode order.  A batch holds
    whatever was appended and carries no alignment promises of its own
    — consumers check what they need.
    """

    __slots__ = ("cell_id", "total_prbs", "subframes", "msg_counts",
                 "rnti", "prbs", "mcs", "streams", "ndi", "tbs_bits",
                 "is_control", "n_messages")

    def __init__(self, cell_id: int, total_prbs: int) -> None:
        self.cell_id = cell_id
        self.total_prbs = total_prbs
        self.subframes: list[int] = []
        self.msg_counts: list[int] = []
        self.rnti: list[int] = []
        self.prbs: list[int] = []
        self.mcs: list[int] = []
        self.streams: list[int] = []
        self.ndi: list[bool] = []
        self.tbs_bits: list[int] = []
        self.is_control: list[bool] = []
        self.n_messages = 0

    def __len__(self) -> int:
        return len(self.subframes)

    def append_record(self, record: SubframeRecord) -> None:
        """Fold one scalar record into the columns."""
        self.subframes.append(record.subframe)
        messages = record.messages
        self.msg_counts.append(len(messages))
        self.n_messages += len(messages)
        rnti, prbs, mcs = self.rnti, self.prbs, self.mcs
        streams, ndi = self.streams, self.ndi
        tbs, ctrl = self.tbs_bits, self.is_control
        for m in messages:
            rnti.append(m.rnti)
            prbs.append(m.n_prbs)
            mcs.append(m.mcs)
            streams.append(m.spatial_streams)
            ndi.append(m.new_data)
            tbs.append(m.tbs_bits)
            ctrl.append(m.is_control)

    def clear(self) -> None:
        """Reset to empty (buffers are reused between blocks)."""
        self.subframes.clear()
        self.msg_counts.clear()
        self.rnti.clear()
        self.prbs.clear()
        self.mcs.clear()
        self.streams.clear()
        self.ndi.clear()
        self.tbs_bits.clear()
        self.is_control.clear()
        self.n_messages = 0

    def to_records(self) -> list[SubframeRecord]:
        """Materialize scalar records (reference/debug path)."""
        out = []
        base = 0
        for k, subframe in enumerate(self.subframes):
            count = self.msg_counts[k]
            messages = [
                DciMessage(subframe, self.cell_id, self.rnti[i],
                           self.prbs[i], self.mcs[i], self.streams[i],
                           tbs_bits=self.tbs_bits[i], new_data=self.ndi[i],
                           is_control=self.is_control[i])
                for i in range(base, base + count)]
            base += count
            out.append(SubframeRecord(subframe, self.cell_id,
                                      self.total_prbs, messages))
        return out
