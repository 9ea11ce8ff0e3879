"""PBE-CC: the paper's primary contribution.

The end-to-end congestion-control algorithm driven by physical-layer
bandwidth measurements: the server-side :class:`PbeSender`, the
mobile-side :class:`PbeClient` (which owns a
:class:`~repro.monitor.PbeMonitor`) and the ACK feedback encoding.
"""

from .client import (
    DELAY_MARGIN_US,
    DPROP_WINDOW_US,
    FAIR_SHARE_FRACTION,
    INTERNET,
    SWITCH_SUBFRAMES,
    WIRELESS,
    PbeClient,
)
from .feedback import PbeFeedback, decode_rate_bps, encode_interval_us
from .sender import DRAIN, RAMP_RTTS, STARTUP, PbeSender

__all__ = [
    "DELAY_MARGIN_US", "DPROP_WINDOW_US", "DRAIN", "FAIR_SHARE_FRACTION",
    "INTERNET", "PbeClient", "PbeFeedback", "PbeSender", "RAMP_RTTS",
    "STARTUP", "SWITCH_SUBFRAMES", "WIRELESS", "decode_rate_bps",
    "encode_interval_us",
]
