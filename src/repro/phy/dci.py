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
from typing import NamedTuple


class _DciFields(NamedTuple):
    subframe: int          #: Subframe index (1 per millisecond).
    cell_id: int           #: Component carrier / cell identifier.
    rnti: int              #: Radio network temporary identifier (user id).
    n_prbs: int            #: Number of PRBs allocated this subframe.
    mcs: int               #: Modulation-and-coding-scheme index.
    spatial_streams: int   #: Number of MIMO spatial streams.
    tbs_bits: int          #: Transport block size, bits.
    new_data: bool         #: New-data indicator (False = retransmission).
    is_control: bool       #: Parameter-update (control-plane) traffic.


class DciMessage(_DciFields):
    """One decoded downlink control message.

    One per grant per subframe, so it is an immutable named tuple (what
    a tuple costs to build) rather than a frozen dataclass; the two
    range checks run in ``__new__``.  It compares, hashes and unpacks
    as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, subframe: int, cell_id: int, rnti: int, n_prbs: int,
                mcs: int, spatial_streams: int, tbs_bits: int,
                new_data: bool = True,
                is_control: bool = False) -> "DciMessage":
        if n_prbs < 0:
            raise ValueError("PRB count must be non-negative")
        if tbs_bits < 0:
            raise ValueError("TBS must be non-negative")
        return tuple.__new__(cls, (subframe, cell_id, rnti, n_prbs, mcs,
                                   spatial_streams, tbs_bits, new_data,
                                   is_control))


@dataclass(slots=True)
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
