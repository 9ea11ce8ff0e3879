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
                 feedback: Optional[Any] = None) -> None:
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
        self.delivered_at_send = 0
        self.delivered_time_at_send = 0
        self.app_limited = False
        #: Number of forwarding hops traversed (debugging aid).
        self.hops = 0
        #: Free-form per-packet metadata (e.g. HARQ bookkeeping).
        self.meta: dict = {}

    def make_ack(self, now_us: int, feedback: Optional[Any] = None,
                 size_bits: int = ACK_BITS) -> "Packet":
        """Build the acknowledgement for this data packet.

        BBR-style delivery bookkeeping fields are copied across so the
        sender can form delivery-rate samples from the ACK alone.
        """
        ack = Packet(self.flow_id, self.seq, size_bits=size_bits,
                     is_ack=True, sent_time_us=self.sent_time_us,
                     acked_seq=self.seq, feedback=feedback)
        ack.recv_time_us = now_us
        ack.delivered_at_send = self.delivered_at_send
        ack.delivered_time_at_send = self.delivered_time_at_send
        ack.app_limited = self.app_limited
        return ack

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (f"<{kind} flow={self.flow_id} seq={self.seq} "
                f"bits={self.size_bits}>")


class AckBatch:
    """Struct-of-arrays view of one uplink grant cycle's ACKs.

    The LTE uplink releases ACKs in bursts (see
    :class:`repro.net.link.BatchingPipe`), which delivers each burst as
    **one** scheduled event carrying this container instead of N
    per-packet ``sink.receive`` events.  The
    sender-side fields every ACK-clocking step needs are unpacked into
    parallel columns once, at flush time, so
    :meth:`repro.baselines.base.Sender.receive_batch` can run its
    per-ACK loop over plain list indexing instead of repeated attribute
    loads.

    ``packets`` keeps the original objects (congestion controllers see
    the real ACK in their :class:`AckContext`, and checkpoint restore
    re-aliases them); the columns are a read-only projection.  ``mixed``
    flags a batch holding anything other than same-flow ACKs — the
    transport core routes such batches through the scalar per-packet
    path rather than guessing.
    """

    __slots__ = ("flow_id", "packets", "acked_seq", "sent_time_us",
                 "size_bits", "delivered_at_send",
                 "delivered_time_at_send", "app_limited", "mixed")

    def __init__(self, flow_id: int, packets: list["Packet"],
                 acked_seq: list, sent_time_us: list, size_bits: list,
                 delivered_at_send: list, delivered_time_at_send: list,
                 app_limited: list, mixed: bool) -> None:
        self.flow_id = flow_id
        self.packets = packets
        self.acked_seq = acked_seq
        self.sent_time_us = sent_time_us
        self.size_bits = size_bits
        self.delivered_at_send = delivered_at_send
        self.delivered_time_at_send = delivered_time_at_send
        self.app_limited = app_limited
        self.mixed = mixed

    @classmethod
    def stage(cls, flow_id: int) -> "AckBatch":
        """Empty batch for incremental staging.

        The uplink (:class:`repro.net.link.BatchingPipe`) builds its
        flush batch one :meth:`append` at a time as ACKs arrive,
        instead of buffering packets and re-scanning them at flush time
        — each packet's fields are read exactly once.
        """
        return cls(flow_id, [], [], [], [], [], [], [], False)

    def append(self, packet: "Packet") -> None:
        """Stage one packet (columns + object, mixed tracked inline)."""
        if not packet.is_ack or packet.flow_id != self.flow_id:
            self.mixed = True
        self.packets.append(packet)
        self.acked_seq.append(packet.acked_seq)
        self.sent_time_us.append(packet.sent_time_us)
        self.size_bits.append(packet.size_bits)
        self.delivered_at_send.append(packet.delivered_at_send)
        self.delivered_time_at_send.append(packet.delivered_time_at_send)
        self.app_limited.append(packet.app_limited)

    @classmethod
    def from_packets(cls, packets: list["Packet"]) -> "AckBatch":
        """Columnarize one flush's packets (single pass)."""
        flow_id = packets[0].flow_id
        acked_seq, sent_time_us, size_bits = [], [], []
        delivered_at_send, delivered_time_at_send = [], []
        app_limited = []
        mixed = False
        for p in packets:
            if not p.is_ack or p.flow_id != flow_id:
                mixed = True
            acked_seq.append(p.acked_seq)
            sent_time_us.append(p.sent_time_us)
            size_bits.append(p.size_bits)
            delivered_at_send.append(p.delivered_at_send)
            delivered_time_at_send.append(p.delivered_time_at_send)
            app_limited.append(p.app_limited)
        return cls(flow_id, packets, acked_seq, sent_time_us, size_bits,
                   delivered_at_send, delivered_time_at_send,
                   app_limited, mixed)

    def __len__(self) -> int:
        return len(self.packets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AckBatch flow={self.flow_id} n={len(self.packets)}>"
