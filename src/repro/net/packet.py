"""Packet objects exchanged across the simulated network.

A single :class:`Packet` class covers both data packets and ACKs; ACKs
are small packets with ``is_ack`` set and an optional ``feedback``
payload (used by PBE-CC's mobile client to report capacity estimates
back to the sender, see §5 of the paper).
"""

from __future__ import annotations

from typing import Any, Optional

from .units import MSS_BITS

#: Size of an acknowledgement packet, in bits (40-byte TCP/IP-like header
#: plus PBE-CC's 32-bit capacity field and state bit).
ACK_BITS = 45 * 8


class Packet:
    """A transport-layer segment travelling through the simulation."""

    __slots__ = (
        "flow_id", "seq", "size_bits", "is_ack", "sent_time_us",
        "recv_time_us", "acked_seq", "feedback", "delivered_at_send",
        "delivered_time_at_send", "app_limited", "hops", "meta",
    )

    def __init__(self, flow_id: int, seq: int, size_bits: int = MSS_BITS,
                 is_ack: bool = False, sent_time_us: int = 0,
                 acked_seq: int = -1,
                 feedback: Optional[Any] = None,
                 delivered_at_send: int = 0,
                 delivered_time_at_send: int = 0,
                 app_limited: bool = False) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.size_bits = size_bits
        self.is_ack = is_ack
        #: Server-side send timestamp of the data packet (echoed on ACKs
        #: so the sender can compute RTT without keeping per-packet state).
        self.sent_time_us = sent_time_us
        #: Receiver-side arrival timestamp (stamped on delivery).
        self.recv_time_us = -1
        self.acked_seq = acked_seq
        self.feedback = feedback
        #: Cumulative bits delivered at the time this packet was sent
        #: (BBR-style delivery-rate sampling; echoed back on the ACK).
        self.delivered_at_send = delivered_at_send
        self.delivered_time_at_send = delivered_time_at_send
        self.app_limited = app_limited
        #: Number of forwarding hops traversed (debugging aid).
        self.hops = 0
        #: Free-form per-packet metadata (e.g. HARQ bookkeeping).
        self.meta: dict = {}

    def make_ack(self, now_us: int, feedback: Optional[Any] = None,
                 size_bits: int = ACK_BITS) -> "Packet":
        """Build the acknowledgement for this data packet.

        BBR-style delivery bookkeeping fields are copied across so the
        sender can form delivery-rate samples from the ACK alone.  One
        per delivered packet, so every slot is written exactly once
        here instead of going through the constructor's defaults
        (``tests/test_packet.py`` holds it to the constructor-built ACK
        over ``__slots__``).
        """
        ack = object.__new__(Packet)
        ack.flow_id = self.flow_id
        ack.seq = ack.acked_seq = self.seq
        ack.size_bits = size_bits
        ack.is_ack = True
        ack.sent_time_us = self.sent_time_us
        ack.recv_time_us = now_us
        ack.feedback = feedback
        ack.delivered_at_send = self.delivered_at_send
        ack.delivered_time_at_send = self.delivered_time_at_send
        ack.app_limited = self.app_limited
        ack.hops = 0
        ack.meta = {}
        return ack

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (f"<{kind} flow={self.flow_id} seq={self.seq} "
                f"bits={self.size_bits}>")

