"""Per-flow delivery records.

:class:`FlowStats` is the raw measurement log every experiment consumes:
each delivered data packet appends an arrival timestamp, its size and its
one-way delay.  Windowed throughput and delay order statistics are
computed by :mod:`repro.harness.metrics` from these records, mirroring
the paper's convention of 100-millisecond measurement windows.
"""

from __future__ import annotations

from array import array

from .units import US_PER_S


class FlowStats:
    """Append-only log of packet deliveries for one flow.

    The three per-packet columns are flat ``array('q')`` buffers rather
    than lists of boxed ints: a busy flow appends hundreds of thousands
    of rows per simulated minute, and the packed columns cut that
    storage ~4×.  End-of-run readers work on the packed columns
    directly: metrics through ``numpy.asarray`` views, fingerprints by
    streaming fixed-size chunks into the hash; ``list()`` is left for
    serialization.  A live view blocks ``append`` (``BufferError``),
    so no reader may keep one past its return.
    """

    def __init__(self, flow_id: int) -> None:
        self.flow_id = flow_id
        #: Arrival timestamps, µs (packed int64 column).
        self.arrival_us = array("q")
        #: Packet sizes, bits (packed int64 column).
        self.size_bits = array("q")
        #: One-way delays, µs (packed int64 column).
        self.delay_us = array("q")

    def record(self, arrival_us: int, size_bits: int, delay_us: int) -> None:
        """Log one delivered packet."""
        self.arrival_us.append(arrival_us)
        self.size_bits.append(size_bits)
        self.delay_us.append(delay_us)

    def record_block(self, arrival_us: int, sizes: list[int],
                     delays: list[int]) -> None:
        """Log a burst delivered at one instant (≡ a :meth:`record` loop)."""
        self.arrival_us.extend([arrival_us] * len(sizes))
        self.size_bits.extend(sizes)
        self.delay_us.extend(delays)

    # ------------------------------------------------------------------
    @property
    def packets(self) -> int:
        """Number of delivered packets."""
        return len(self.arrival_us)

    @property
    def first_arrival_us(self) -> int:
        """First arrival instant, µs (-1 before any delivery)."""
        arrivals = self.arrival_us
        return arrivals[0] if arrivals else -1

    @property
    def last_arrival_us(self) -> int:
        """Last arrival instant, µs (-1 before any delivery)."""
        arrivals = self.arrival_us
        return arrivals[-1] if arrivals else -1

    @property
    def total_bits(self) -> int:
        """Bits delivered so far."""
        return sum(self.size_bits)

    def average_throughput_bps(self) -> float:
        """Mean goodput across the flow's active span."""
        span = self.last_arrival_us - self.first_arrival_us
        if span <= 0:
            return 0.0
        return self.total_bits * US_PER_S / span
