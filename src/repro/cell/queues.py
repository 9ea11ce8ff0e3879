"""Per-user downlink queues and transport blocks.

The base station keeps a *separate* downlink buffer for every user — a
structural property the paper leans on for RTT fairness (§4.3: "the
base station provides separate buffers for every user").  Packets are
segmented into transport blocks (TBs) at whatever size the scheduler
grants each subframe; a packet may span several TBs and is considered
delivered when the TB holding its final bit is released in order by the
receiver's reordering buffer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..net.packet import Packet

#: Fraction of transport-block bits consumed by RLC/PDCP/MAC headers —
#: the paper's measured protocol overhead γ = 6.8% (§4.2.1, Eqn. 5).
PROTOCOL_OVERHEAD = 0.068


@dataclass(slots=True)
class TransportBlock:
    """One MAC transport block: a slice of a user's downlink queue."""

    seq: int                 #: Per-user in-order delivery sequence number.
    rnti: int                #: Destination user.
    cell_id: int             #: Carrier that transmitted it.
    subframe: int            #: Subframe of the *original* transmission.
    bits: int                #: Transport block size.
    n_prbs: int              #: PRBs the allocation consumed.
    mcs: int
    spatial_streams: int
    #: Packets whose final bit rides in this TB (deliverable on release).
    #: A background user's blocks, which no UE receives, share one empty
    #: tuple here (:meth:`DownlinkQueue.pull_bits`).
    completes: list[Packet] = field(default_factory=list)
    #: The packet whose first bits ride here and whose later bits ride a
    #: later TB (corrupted if this TB is abandoned).  Only the queue head
    #: is ever part-sent, so there is at most one.
    partial: Optional[Packet] = None


class DownlinkQueue:
    """Droptail per-user buffer at the base station, with segmentation.

    The packets wait whole in ``_packets``; only the head can be partly
    sent, so ``_head_remaining`` — the head's bits not yet pulled (0
    while empty) — is all :meth:`pull` needs to cut a transport block
    at any bit boundary the scheduler grants.
    """

    def __init__(self, capacity_packets: int = 3000) -> None:
        if capacity_packets < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity_packets = capacity_packets
        self._packets: deque[Packet] = deque()
        self._head_remaining = 0
        self.backlog_bits = 0
        self.dropped = 0
        self.enqueued = 0

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def empty(self) -> bool:
        return not self._packets

    def push(self, packet: Packet) -> bool:
        """Enqueue a packet; returns ``False`` (and counts) on droptail."""
        packets = self._packets
        if len(packets) >= self.capacity_packets:
            self.dropped += 1
            return False
        if not packets:
            self._head_remaining = packet.size_bits
        packets.append(packet)
        self.backlog_bits += packet.size_bits
        self.enqueued += 1
        return True

    def pull(self, max_bits: int,
             tb: TransportBlock) -> int:
        """Move up to ``max_bits`` from the queue into ``tb``.

        Fills the transport block's ``completes`` list, sets its
        ``partial`` when the head is cut short, and returns the number of
        bits actually taken (0 if the queue is empty).
        """
        if max_bits < 0:
            raise ValueError("max_bits must be non-negative")
        taken = 0
        packets = self._packets
        remaining = self._head_remaining
        complete = tb.completes.append
        while taken < max_bits and packets:
            packet = packets[0]
            room = max_bits - taken
            if remaining > room:
                remaining -= room
                taken = max_bits
                tb.partial = packet
                break
            taken += remaining
            complete(packet)
            packets.popleft()
            remaining = packets[0].size_bits if packets else 0
        self._head_remaining = remaining
        self.backlog_bits -= taken
        return taken

    def pull_bits(self, max_bits: int) -> int:
        """:meth:`pull` for a block whose packets nobody reads (a
        background user's): the same bits leave the queue, and no
        packet is recorded as completed or part-sent."""
        taken = 0
        packets = self._packets
        remaining = self._head_remaining
        while taken < max_bits and packets:
            room = max_bits - taken
            if remaining > room:
                remaining -= room
                taken = max_bits
                break
            taken += remaining
            packets.popleft()
            remaining = packets[0].size_bits if packets else 0
        self._head_remaining = remaining
        self.backlog_bits -= taken
        return taken
