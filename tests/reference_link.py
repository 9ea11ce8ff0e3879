"""The event-driven droptail link, kept verbatim as a test oracle.

This is ``repro.net.link.Link`` as it stood before the analytic FIFO
link replaced it (one ``_finish`` event per serialization plus one
``sink.receive`` event per propagation).  Nothing under ``src/`` imports
it; ``tests/test_link_analytic.py`` runs it beside the analytic link.
"""

from __future__ import annotations

from collections import deque

from repro.net.link import Receiver
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import transmission_time_us


class Link(Receiver):
    """Finite-rate link with a droptail FIFO queue.

    Packets are serialized one at a time at ``rate_bps``; each then
    propagates for ``delay_us`` before reaching ``sink``.  When the queue
    holds ``queue_packets`` packets, further arrivals are dropped (and
    counted), which is what loss-based congestion control reacts to.
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

        self._queue: deque[Packet] = deque()
        self._transmitting = False
        #: Absolute time the in-progress serialization completes (only
        #: meaningful while ``_transmitting``).
        self._tx_end_us = 0

        self.forwarded = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Packets currently queued (excluding the one being serialized)."""
        return len(self._queue)

    def queue_delay_estimate_us(self, size_bits: int) -> int:
        """Rough serialization delay a new arrival of ``size_bits`` sees.

        Counts the queued backlog, the arrival itself, *and* the
        remainder of the packet currently on the wire — the queue
        alone under-reports by up to one full serialization time at
        exactly the moment the link is busiest.
        """
        backlog = sum(p.size_bits for p in self._queue) + size_bits
        estimate = transmission_time_us(backlog, self.rate_bps)
        if self._transmitting:
            estimate += max(0, self._tx_end_us - self.sim.now)
        return estimate

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if len(self._queue) >= self.queue_packets:
            self.dropped += 1
            return
        self._queue.append(packet)
        if not self._transmitting:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._transmitting = False
            return
        self._transmitting = True
        packet = self._queue.popleft()
        tx_us = transmission_time_us(packet.size_bits, self.rate_bps)
        self._tx_end_us = self.sim.now + tx_us
        self.sim.schedule(tx_us, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.forwarded += 1
        self.sim.schedule(self.delay_us, self.sink.receive, packet)
        self._start_next()
