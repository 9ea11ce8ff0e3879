"""Discrete-event network simulation substrate.

This package provides the wired half of the end-to-end path the paper's
flows traverse (server → Internet → cell tower → mobile): an integer-
microsecond event loop, packets, finite-rate droptail links, pure-delay
pipes and per-flow delivery logs.
"""

from .flow import FlowStats
from .link import (
    BatchingPipe,
    FlowDemux,
    Link,
    PacketSink,
    Receiver,
    Tap,
)
from .packet import ACK_BITS, Packet
from .sim import Event, Simulator
from .units import (
    MSS_BITS,
    MSS_BYTES,
    SUBFRAME_US,
    US_PER_MS,
    US_PER_S,
    transmission_time_us,
    us_from_seconds,
)

__all__ = [
    "ACK_BITS", "BatchingPipe", "Event", "FlowDemux",
    "FlowStats", "Link", "MSS_BITS",
    "MSS_BYTES", "Packet", "PacketSink", "Receiver", "SUBFRAME_US",
    "Simulator", "Tap", "US_PER_MS", "US_PER_S", "transmission_time_us",
    "us_from_seconds",
]
