"""Wired network links with droptail queues.

Two flavours:

* :class:`Link` — a finite-rate FIFO link with propagation delay and a
  droptail queue, worked out analytically at each arrival.  Used for the
  Internet segment of the end-to-end path (and as the Internet
  *bottleneck* when its rate is set below the cellular capacity).
* :class:`DelayPipe` — an infinite-rate, pure-propagation-delay pipe.
  Used for ACK return paths and non-bottleneck segments.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .packet import AckBatch, Packet
from .sim import Simulator
from .units import transmission_time_us


class Receiver:
    """Anything that can accept a packet (duck-typed protocol).  A sink
    reading its input on its own clock may add ``receive_at(packet,
    arrival_us) -> bool``: take the packet early, stamped with its
    arrival instant (``False``: send the ``receive`` event instead)."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError


class DelayPipe(Receiver):
    """Infinite-bandwidth link: every packet arrives ``delay_us`` later."""

    #: Checkpointing: the simulator and downstream sink are wiring,
    #: restored from the rebuilt experiment (see repro.statedict).
    SNAPSHOT_SKIP = ("sim", "sink")

    def __init__(self, sim: Simulator, sink: Receiver, delay_us: int,
                 name: str = "pipe") -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.sink = sink
        self.delay_us = delay_us
        self.name = name
        self.forwarded = 0

    def receive(self, packet: Packet) -> None:
        packet.hops += 1
        self.forwarded += 1
        self.sim.schedule(self.delay_us, self.sink.receive, packet)


class BatchingPipe(Receiver):
    """Pure-delay pipe that releases packets in periodic batches.

    Models the LTE *uplink* path for ACKs: a mobile cannot transmit
    whenever it likes — uplink transmissions ride on the scheduling-
    request/grant cycle, so ACKs leave the phone in bursts every few
    milliseconds.  Client-side one-way-delay measurements never see
    this, but sender-side RTT/delay estimators do (it is a major source
    of the "ACK delay, ACK compression" problems §2 attributes to
    delay-based schemes on cellular paths).

    Each flush delivers the whole burst — single ACKs included — as
    **one** scheduled event carrying an :class:`AckBatch`, handed to the
    sink's ``receive_batch`` method when it has one (per-packet
    ``receive`` loop otherwise).  One event per ACK would put the same
    deliveries at the same instant as a contiguous run of event sequence
    numbers with nothing interleaved between them, so collapsing the
    run into a single event only relabels subsequent sequence numbers
    uniformly — relative event order, and therefore behaviour, is
    unchanged (``tests/reference_engine.py`` keeps the event-per-ACK
    pipe; the ``repro.harness.fingerprint`` byte-identity suite runs
    both).

    The batch is *staged columnar*: arriving ACKs append straight into
    the flush cycle's :class:`AckBatch` columns (``_stage``), so the
    flush itself is O(1) instead of a second pass over the burst.
    ``_held`` stays the canonical packet list (it doubles as the staged
    batch's ``packets`` column); after a checkpoint restore the stage is
    gone (it is derived state) and the flush falls back to
    :meth:`AckBatch.from_packets`.
    """

    SNAPSHOT_SKIP = ("sim", "sink", "_stage")

    def __init__(self, sim: Simulator, sink: Receiver, delay_us: int,
                 batch_interval_us: int = 5_000,
                 name: str = "uplink") -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        if batch_interval_us < 1:
            raise ValueError("batch interval must be positive")
        self.sim = sim
        self.sink = sink
        self.delay_us = delay_us
        self.batch_interval_us = batch_interval_us
        self.name = name
        self._held: list[Packet] = []
        #: Columnar view of ``_held`` for the current flush cycle
        #: (``None`` while idle, or after a restore).
        self._stage: Optional[AckBatch] = None
        self.forwarded = 0
        self.batches = 0

    def _open_cycle(self, flow_id: int) -> None:
        # Align the flush to the next grant boundary.  A packet
        # landing exactly on a boundary rides that grant (wait 0),
        # not the next one a full cycle later.
        wait = -self.sim.now % self.batch_interval_us
        self.sim.schedule(wait, self._flush)
        stage = AckBatch.stage(flow_id)
        stage.packets = self._held  # one list, two views
        self._stage = stage

    def receive(self, packet: Packet) -> None:
        packet.hops += 1
        if not self._held:
            self._open_cycle(packet.flow_id)
        stage = self._stage
        if stage is not None:
            stage.append(packet)  # appends to _held via the alias
        else:
            self._held.append(packet)

    def receive_block(self, packets: list[Packet]) -> None:
        """Accept one burst of ACKs (same effects as per-packet calls).

        The columnar ACK-generation path hands a whole released
        transport block's ACKs over in one call; the column appends are
        hoisted into locals here instead of dispatching
        :meth:`AckBatch.append` per packet.
        """
        if not packets:
            return
        held = self._held
        if not held:
            self._open_cycle(packets[0].flow_id)
        stage = self._stage
        if stage is None:
            for packet in packets:
                packet.hops += 1
                held.append(packet)
            return
        flow_id = stage.flow_id
        ap_pkt = held.append
        ap_seq = stage.acked_seq.append
        ap_sent = stage.sent_time_us.append
        ap_size = stage.size_bits.append
        ap_das = stage.delivered_at_send.append
        ap_dtas = stage.delivered_time_at_send.append
        ap_app = stage.app_limited.append
        for packet in packets:
            packet.hops += 1
            if not packet.is_ack or packet.flow_id != flow_id:
                stage.mixed = True
            ap_pkt(packet)
            ap_seq(packet.acked_seq)
            ap_sent(packet.sent_time_us)
            ap_size(packet.size_bits)
            ap_das(packet.delivered_at_send)
            ap_dtas(packet.delivered_time_at_send)
            ap_app(packet.app_limited)

    def _flush(self) -> None:
        batch, self._held = self._held, []
        stage, self._stage = self._stage, None
        self.batches += 1
        n = len(batch)
        self.forwarded += n
        if (stage is None or stage.packets is not batch
                or len(stage.acked_seq) != n):
            # Stage lost (checkpoint restore mid-cycle): rebuild.
            stage = AckBatch.from_packets(batch)
        perf = self.sim.perf
        if perf is not None:
            perf.ack_batches += 1
            perf.acks_batched += n
        self.sim.schedule(self.delay_us, self._deliver, stage)

    def _deliver(self, batch: AckBatch) -> None:
        receive_batch = getattr(self.sink, "receive_batch", None)
        if receive_batch is not None:
            receive_batch(batch)
        else:
            receive = self.sink.receive
            for packet in batch.packets:
                receive(packet)


class Link(Receiver):
    """Finite-rate link with a droptail FIFO queue, computed at arrival.

    Packets are serialized one at a time at ``rate_bps``; each then
    propagates for ``delay_us`` before reaching ``sink``.  A FIFO's
    departures follow from its arrivals, so :meth:`receive` fixes the
    crossing on the spot (serialization ends at ``max(now, busy_until) +
    tx_us``) and hands the packet over stamped with its arrival instant.
    ``_starts`` holds the service start of each packet still waiting,
    retired lazily; once it holds ``queue_packets``, arrivals are dropped
    (and counted) — what loss-based congestion control reacts to.  Tie
    rule: a serialization ending at ``t`` has freed its slot by ``t``.
    """

    SNAPSHOT_SKIP = ("sim", "sink")

    def __init__(self, sim: Simulator, sink: Receiver, rate_bps: float,
                 delay_us: int, queue_packets: int = 1000,
                 name: str = "link") -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        self.sim = sim
        self.sink = sink
        self.rate_bps = rate_bps
        self.delay_us = delay_us
        self.queue_packets = queue_packets
        self.name = name
        #: Absolute time the serializer next falls idle.
        self._busy_until = 0
        self._starts: deque[int] = deque()
        self._accepted = 0
        self.dropped = 0

    @property
    def queue_depth(self) -> int:
        """Packets currently queued (excluding the one being serialized)."""
        starts, now = self._starts, self.sim.now
        while starts and starts[0] <= now:
            starts.popleft()
        return len(starts)

    @property
    def forwarded(self) -> int:
        """Packets whose serialization has completed."""
        return (self._accepted - self.queue_depth
                - (self._busy_until > self.sim.now))

    def queue_delay_estimate_us(self, size_bits: int) -> int:
        """Exact wait + serialization a ``size_bits`` arrival would see
        (the in-flight packet's remainder included)."""
        return (max(0, self._busy_until - self.sim.now)
                + transmission_time_us(size_bits, self.rate_bps))

    def receive(self, packet: Packet) -> None:
        if self.queue_depth >= self.queue_packets:
            self.dropped += 1
            return
        packet.hops += 1
        self._accepted += 1
        start = self._busy_until
        if start > self.sim.now:
            self._starts.append(start)
        else:
            start = self.sim.now
        self._busy_until = end = start + transmission_time_us(
            packet.size_bits, self.rate_bps)
        arrival_us = end + self.delay_us
        park = getattr(self.sink, "receive_at", None)
        if park is None or not park(packet, arrival_us):
            self.sim.schedule_at(arrival_us, self.sink.receive, packet)


class FlowDemux(Receiver):
    """Route packets to per-flow sinks by ``flow_id``.

    Used behind a shared bottleneck :class:`Link`: several senders pour
    into one queue, and the demux fans the survivors out to each flow's
    cellular ingress (the §4.2.3 shared-Internet-bottleneck topology).
    """

    #: Routes map to per-flow ingress adapters (rebuilt wiring).
    SNAPSHOT_SKIP = ("_routes",)

    def __init__(self, routes: Optional[dict] = None) -> None:
        self._routes: dict[int, Receiver] = dict(routes or {})
        self.unrouted = 0

    def add_route(self, flow_id: int, sink: Receiver) -> None:
        self._routes[flow_id] = sink

    def receive(self, packet: Packet) -> None:
        sink = self._routes.get(packet.flow_id)
        if sink is None:
            self.unrouted += 1
            return
        sink.receive(packet)

    def receive_at(self, packet: Packet, arrival_us: int) -> bool:
        park = getattr(self._routes.get(packet.flow_id), "receive_at", None)
        return park is not None and park(packet, arrival_us)


class PacketSink(Receiver):
    """Terminal node that records everything it receives (tests/debug)."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim
        self.packets: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        if self.sim is not None:
            packet.recv_time_us = self.sim.now
        self.packets.append(packet)
