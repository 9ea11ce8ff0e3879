"""User-equipment (mobile device) receive pipeline.

The UE end of the wireless link: transport blocks arrive from the base
station, pass through the HARQ reordering buffer (Figure 3 of the
paper) and, once released in order, their completed transport-layer
packets are handed to whatever receiver logic is attached (the PBE-CC
mobile client, a plain ACKing receiver, ...).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.packet import Packet
from ..net.sim import Simulator
from ..phy.harq import ReorderingBuffer
from .queues import TransportBlock

#: Metadata key marking packets that lost a fragment in an abandoned TB.
CORRUPT_KEY = "harq_corrupt"


class UserEquipment:
    """Receiver-side state for one mobile user."""

    #: Checkpointing: wiring restored from the rebuilt experiment.
    SNAPSHOT_SKIP = ("sim", "on_packet_block")

    def __init__(self, sim: Simulator, rnti: int,
                 on_packet_block: Optional[
                     Callable[[list[Packet]], None]] = None) -> None:
        self.sim = sim
        self.rnti = rnti
        #: Burst callback: one call per instant with every in-order,
        #: uncorrupted packet it delivered (a receiver's
        #: ``receive_block``).
        self.on_packet_block = on_packet_block
        self._reorder: ReorderingBuffer[TransportBlock] = ReorderingBuffer()
        self.delivered_packets = 0
        self.lost_packets = 0
        self.delivered_tbs = 0
        self.abandoned_tbs = 0

    # ------------------------------------------------------------------
    def receive_tb(self, tb: TransportBlock) -> None:
        """Accept a correctly decoded transport block."""
        self.receive_subframe(((tb, True),))

    def abandon_tb(self, tb: TransportBlock) -> None:
        """HARQ gave up on ``tb``; unblock the reordering buffer."""
        self.receive_subframe(((tb, False),))

    def receive_subframe(self, entries) -> None:
        """One instant's ``(tb, decoded)`` outcomes, in transmit order.

        Every entry passes through the reordering buffer in turn; what
        becomes deliverable is handed on as *one* burst (the base
        station lands a subframe's transport blocks through here —
        ``receive_tb``/``abandon_tb`` are the one-entry case).
        """
        reorder = self._reorder
        delivered: list[Packet] = []
        for tb, decoded in entries:
            if decoded:
                self.delivered_tbs += 1
                released = reorder.insert(tb.seq, tb)
            else:
                self.abandoned_tbs += 1
                for packet in tb.touches:
                    packet.meta[CORRUPT_KEY] = True
                self.lost_packets += len(tb.completes)
                released = reorder.abandon(tb.seq)
            for block in released:
                completes = block.completes
                # Only an abandoned block sets CORRUPT_KEY, and only on
                # this UE's packets: none abandoned, none to look for.
                if self.abandoned_tbs:
                    intact = [packet for packet in completes
                              if not packet.meta.get(CORRUPT_KEY)]
                    self.lost_packets += len(completes) - len(intact)
                    completes = intact
                delivered += completes
        if not delivered:
            return
        self.delivered_packets += len(delivered)
        if self.on_packet_block is not None:
            self.on_packet_block(delivered)
