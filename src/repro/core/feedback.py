"""ACK feedback encoding (§5 of the paper).

The PBE-CC mobile client describes capacity to the sender as "an
interval in milliseconds between sending two 1500-byte packets,
represented with a 32-bit integer", plus one bit identifying the
current bottleneck state.  We encode the interval in *microseconds*
(the natural fixed-point reading of the paper's description — a whole-
millisecond interval could not express rates above 12 Mbit/s), so the
representable rate range is 12 kbit/s … 12 Tbit/s and quantization
error stays under 1% for rates below 120 Mbit/s (≤6% out to 1.2 Gbit/s).

Decoding is *saturating*: a corrupted interval (e.g. a flipped field on
a mangled ACK) clamps to the representable range instead of raising, so
one bad ACK can never kill the sender.
"""

from __future__ import annotations

from typing import NamedTuple

from ..net.units import MSS_BITS, US_PER_S

_UINT32_MAX = 2**32 - 1


def encode_interval_us(rate_bps: float) -> int:
    """Inter-packet interval (µs between 1500-byte packets) for a rate.

    Rate 0 (or absurdly small) saturates to the maximum interval, which
    decodes back to the minimum representable rate.
    """
    if rate_bps <= 0:
        return _UINT32_MAX
    interval = round(MSS_BITS * US_PER_S / rate_bps)
    return max(1, min(_UINT32_MAX, interval))


def decode_rate_bps(interval_us: int) -> float:
    """Inverse of :func:`encode_interval_us`, saturating.

    Out-of-range intervals — which a well-behaved client never sends,
    but a corrupted ACK can carry — clamp to the representable range
    instead of raising.
    """
    if not 1 <= interval_us <= _UINT32_MAX:
        interval_us = min(max(int(interval_us), 1), _UINT32_MAX)
    return MSS_BITS * US_PER_S / interval_us


class PbeFeedback(NamedTuple):
    """The capacity report riding on every PBE-CC acknowledgement.

    Immutable: a named tuple (what a tuple costs to build, once per
    capacity report) rather than a frozen dataclass, whose every field
    goes through ``object.__setattr__``.  ``_replace`` derives a changed
    copy.  It compares and hashes as the tuple of its fields.
    """

    #: Encoded send-rate interval the sender should pace at (µs/packet).
    target_interval_us: int
    #: Encoded fair-share interval (probe cap when Internet-bottlenecked).
    fair_interval_us: int
    #: The bottleneck-state bit: True = Internet bottleneck detected.
    internet_bottleneck: bool
    #: Secondary-carrier (re)activation flag: sender restarts its
    #: fair-share approach (§4.1).
    carrier_activated: bool = False
    #: Staleness bit: the client's monitor report has outlived its
    #: decode stream (gap/outage), so the rates above are echoes of an
    #: old estimate — the sender should not steer by them.
    stale: bool = False

    @classmethod
    def from_rates(cls, target_rate_bps: float, fair_rate_bps: float,
                   internet_bottleneck: bool,
                   carrier_activated: bool = False,
                   stale: bool = False) -> "PbeFeedback":
        return cls(encode_interval_us(target_rate_bps),
                   encode_interval_us(fair_rate_bps),
                   internet_bottleneck, carrier_activated, stale)

    @property
    def target_rate_bps(self) -> float:
        return decode_rate_bps(self.target_interval_us)

    @property
    def fair_rate_bps(self) -> float:
        return decode_rate_bps(self.fair_interval_us)
