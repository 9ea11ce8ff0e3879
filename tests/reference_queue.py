"""The ``[packet, remaining]``-pair downlink queue, kept verbatim as a
test oracle.

This is ``repro.cell.queues.DownlinkQueue`` as it stood before the
queue became a deque of packets plus one head-remainder int, and it
still fills a block's ``touches`` (every packet with a bit in it), which
the engine's :class:`~repro.cell.queues.TransportBlock` no longer
keeps.  Nothing under ``src/`` imports it; ``tests/test_queues.py``
drives it beside the queue with random push/pull/droptail schedules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.net.packet import Packet


@dataclass
class Block:
    """What a pull puts in a transport block, in the old shape."""

    #: Packets whose final bit rides in this block.
    completes: list[Packet] = field(default_factory=list)
    #: Packets with any bit in this block.
    touches: list[Packet] = field(default_factory=list)


class DownlinkQueue:
    """Droptail per-user buffer at the base station, with segmentation.

    Tracks ``(packet, remaining_bits)`` pairs so :meth:`pull` can cut a
    transport block at any bit boundary the scheduler grants.
    """

    def __init__(self, capacity_packets: int = 3000) -> None:
        if capacity_packets < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity_packets = capacity_packets
        self._entries: deque[list] = deque()  # [packet, remaining_bits]
        self.backlog_bits = 0
        self.dropped = 0
        self.enqueued = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, packet: Packet) -> bool:
        """Enqueue a packet; returns ``False`` (and counts) on droptail."""
        if len(self._entries) >= self.capacity_packets:
            self.dropped += 1
            return False
        self._entries.append([packet, packet.size_bits])
        self.backlog_bits += packet.size_bits
        self.enqueued += 1
        return True

    def pull(self, max_bits: int, tb: Block) -> int:
        """Move up to ``max_bits`` from the queue into ``tb``.

        Fills the transport block's ``completes``/``touches`` lists and
        returns the number of bits actually taken (0 if the queue is
        empty).
        """
        if max_bits < 0:
            raise ValueError("max_bits must be non-negative")
        taken = 0
        entries = self._entries
        touch = tb.touches.append
        complete = tb.completes.append
        while taken < max_bits and entries:
            entry = entries[0]
            remaining = entry[1]
            room = max_bits - taken
            chunk = remaining if remaining < room else room
            taken += chunk
            entry[1] = remaining - chunk
            touch(entry[0])
            if remaining == chunk:
                complete(entry[0])
                entries.popleft()
        self.backlog_bits -= taken
        return taken
