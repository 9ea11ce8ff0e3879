"""Wired network links and pipes.

* :class:`Link` — a finite-rate FIFO link with propagation delay and a
  droptail queue, worked out analytically at each arrival.  Used for the
  Internet segment of the end-to-end path (and as the Internet
  *bottleneck* when its rate is set below the cellular capacity).
* :class:`BatchingPipe` — a pure-delay pipe that releases packets in
  periodic bursts: the LTE uplink that carries every flow's ACKs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..checks import require_int, require_real
from .packet import Packet
from .sim import Simulator
from .units import transmission_time_us


class Receiver:
    """Anything that can accept packets: one delivery contract.

    ``receive`` takes one packet; ``receive_block`` takes a burst (one
    subframe's packets, one grant cycle's ACKs) and ``receive_batch`` is
    the same call under the name the uplink's flush uses.  By default a
    burst is a loop of ``receive`` in order, so a sink that only defines
    ``receive`` takes bursts unchanged; an endpoint with a burst body
    makes ``receive`` its burst of one.  A sink reading its input on its
    own clock overrides ``receive_at(packet, arrival_us) -> bool``: take
    the packet early, stamped with its arrival instant (the default
    ``False`` makes the link send the ``receive`` event instead)."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError

    def receive_block(self, packets: list[Packet]) -> None:
        receive = self.receive
        for packet in packets:
            receive(packet)

    def receive_batch(self, packets: list[Packet]) -> None:
        self.receive_block(packets)

    def receive_at(self, packet: Packet, arrival_us: int) -> bool:
        return False


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
    **one** scheduled event carrying the held list to the sink's
    ``receive_batch``.  One event per ACK would put the same deliveries
    at the same instant as a contiguous run of event sequence numbers
    with nothing interleaved between them, so collapsing the run into a
    single event only relabels subsequent sequence numbers uniformly —
    relative event order, and therefore behaviour, is unchanged
    (``tests/reference_engine.py`` keeps the event-per-ACK pipe; the
    ``repro.harness.fingerprint`` byte-identity suite runs both).

    ``_held`` is the cycle's packets in arrival order (snapshot state).
    """

    SNAPSHOT_SKIP = ("sim", "sink")

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
        self.forwarded = 0
        self.batches = 0

    def _open_cycle(self) -> None:
        # Align the flush to the next grant boundary.  A packet
        # landing exactly on a boundary rides that grant (wait 0),
        # not the next one a full cycle later.
        wait = -self.sim.now % self.batch_interval_us
        self.sim.schedule(wait, self._flush)

    def receive(self, packet: Packet) -> None:
        # ``receive_block`` for a burst of one.
        held = self._held
        if not held:
            self._open_cycle()
        held.append(packet)

    def receive_block(self, packets: list[Packet]) -> None:
        """Hold one burst (a whole released transport block's ACKs) for
        the next grant."""
        if not packets:
            return
        held = self._held
        if not held:
            self._open_cycle()
        held += packets

    def _flush(self) -> None:
        held, self._held = self._held, []
        self.batches += 1
        n = len(held)
        self.forwarded += n
        perf = self.sim.perf
        if perf is not None:
            perf.ack_batches += 1
            perf.acks_batched += n
        self.sim.schedule(self.delay_us, self._deliver, held)

    def _deliver(self, held: list[Packet]) -> None:
        self.sink.receive_batch(held)


class Link(Receiver):
    """Finite-rate link with a droptail FIFO queue, computed at arrival.

    Packets are serialized one at a time at ``rate_bps``; each then
    propagates for ``delay_us`` before reaching ``sink``.  A FIFO's
    departures follow from its arrivals, so :meth:`receive` fixes the
    crossing on the spot (serialization ends at ``max(now, busy_until) +
    tx_us``) and hands the packet over stamped with its arrival instant.
    ``rate_bps`` is fixed at construction: ``tx_us`` is remembered per
    packet size (``_tx_size_bits``/``_tx_us``, snapshotted with the rest).
    ``_starts`` holds the service start of each packet still waiting,
    retired lazily; once it holds ``queue_packets``, arrivals are dropped
    (and counted) — what loss-based congestion control reacts to.  Tie
    rule: a serialization ending at ``t`` has freed its slot by ``t``.
    """

    SNAPSHOT_SKIP = ("sim", "sink")

    def __init__(self, sim: Simulator, sink: Receiver, rate_bps: float,
                 delay_us: int, queue_packets: int = 1000,
                 name: str = "link") -> None:
        require_real("rate_bps", rate_bps)
        require_int("delay_us", delay_us)
        require_int("queue_packets", queue_packets)
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if delay_us < 0:
            raise ValueError("delay_us must be non-negative")
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
        #: Serialization time of the last size seen (a flow's packets
        #: are one size and ``rate_bps`` is fixed at construction).
        self._tx_size_bits: Optional[int] = None
        self._tx_us = 0

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

    def receive(self, packet: Packet) -> None:
        now = self.sim.now
        starts = self._starts
        if starts:
            # queue_depth, in place: retire what has started service.
            while starts and starts[0] <= now:
                starts.popleft()
            if len(starts) >= self.queue_packets:
                self.dropped += 1
                return
        self._accepted += 1
        start = self._busy_until
        if start > now:
            starts.append(start)
        else:
            start = now
        size_bits = packet.size_bits
        if size_bits != self._tx_size_bits:
            self._tx_size_bits = size_bits
            self._tx_us = transmission_time_us(size_bits, self.rate_bps)
        self._busy_until = end = start + self._tx_us
        arrival_us = end + self.delay_us
        sink = self.sink
        if not sink.receive_at(packet, arrival_us):
            self.sim.schedule_at(arrival_us, sink.receive, packet)


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
        sink = self._routes.get(packet.flow_id)
        return sink is not None and sink.receive_at(packet, arrival_us)


class Tap(Receiver):
    """Calls ``observe(packet)`` on every packet of a burst, then hands
    the burst on to ``sink`` (``observe`` may edit a packet in place).
    Wrapping a client's ``uplink`` in one is how a run watches or
    rewrites the feedback its ACKs carry."""

    def __init__(self, sink: Receiver,
                 observe: Callable[[Packet], None]) -> None:
        self.sink = sink
        self.observe = observe

    def receive(self, packet: Packet) -> None:
        self.receive_block([packet])

    def receive_block(self, packets: list[Packet]) -> None:
        observe = self.observe
        for packet in packets:
            observe(packet)
        self.sink.receive_block(packets)


class PacketSink(Receiver):
    """Terminal node that records everything it receives (tests/debug).

    With a simulator, ``arrival_us[i]`` is the instant ``packets[i]``
    arrived."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim
        self.packets: list[Packet] = []
        self.arrival_us: list[int] = []

    def receive(self, packet: Packet) -> None:
        if self.sim is not None:
            self.arrival_us.append(self.sim.now)
        self.packets.append(packet)
