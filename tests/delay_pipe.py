"""A pure-delay pipe for hand-wired test paths.

The simulator's own paths are ``Link`` (the wired hop) and
``BatchingPipe`` (the ACK uplink); tests that wire a sender to a
receiver by hand use this infinite-rate pipe between them.
"""

from __future__ import annotations

from repro.net.link import Receiver
from repro.net.packet import Packet
from repro.net.sim import Simulator


class DelayPipe(Receiver):
    """Infinite-bandwidth link: every packet arrives ``delay_us`` later."""

    def __init__(self, sim: Simulator, sink: Receiver,
                 delay_us: int) -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.sink = sink
        self.delay_us = delay_us

    def receive(self, packet: Packet) -> None:
        self.sim.schedule(self.delay_us, self.sink.receive, packet)
