"""Unit conventions and conversion helpers used across the simulator.

All simulation time is kept as **integer microseconds** so event ordering
is exact and reproducible (no floating-point accumulation drift).  All
data rates are **bits per second** and all data sizes are **bits**, unless
a name explicitly says otherwise.
"""

from __future__ import annotations

#: Microseconds per millisecond.
US_PER_MS = 1_000
#: Microseconds per second.
US_PER_S = 1_000_000
#: Duration of one LTE subframe (1 ms) in microseconds.
SUBFRAME_US = 1_000

#: Default maximum segment size used throughout, in bytes (Ethernet MTU
#: minus typical headers; the paper describes capacity feedback in terms
#: of 1500-byte packets).
MSS_BYTES = 1_500
#: Default maximum segment size in bits.
MSS_BITS = MSS_BYTES * 8


def us_from_seconds(s: float) -> int:
    """Convert float seconds to integer microseconds (for scheduling)."""
    return round(s * US_PER_S)


def transmission_time_us(size_bits: int, rate_bps: float) -> int:
    """Time to serialize ``size_bits`` onto a link of ``rate_bps``.

    Returns at least 1 microsecond so zero-duration transmissions cannot
    starve the event loop.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return max(1, round(size_bits * US_PER_S / rate_bps))
