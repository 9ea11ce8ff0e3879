"""Baseline congestion-control algorithms (the paper's comparison set).

Every scheme plugs into the shared :class:`~repro.baselines.base.Sender`
endpoint machinery as a :class:`CongestionControl` strategy:
BBR and CUBIC (deployed kernels), Verus and Sprout (cellular-specific),
Copa, PCC Allegro and PCC Vivace (recent research), plus a fixed-rate
sender for offered-load experiments.
"""

from .base import (
    DUPACK_THRESHOLD,
    UNTIL_CALLBACK,
    AckContext,
    AckingReceiver,
    CongestionControl,
    Sender,
)
from .bbr import (
    PROBE_BW,
    PROBE_BW_GAINS,
    PROBE_RTT,
    STARTUP,
    STARTUP_GAIN,
    Bbr,
)
from .copa import Copa
from .cubic import Cubic
from .fixedrate import FixedRate
from .pcc import PccAllegro, PccVivace
from .sprout import Sprout
from .verus import Verus
from .windowed import WindowedMax, WindowedMin

__all__ = [
    "AckContext", "AckingReceiver", "Bbr", "CongestionControl", "Copa",
    "Cubic", "DUPACK_THRESHOLD", "FixedRate", "PROBE_BW", "PROBE_BW_GAINS",
    "PROBE_RTT",
    "PccAllegro", "PccVivace", "STARTUP", "STARTUP_GAIN", "Sender",
    "Sprout", "UNTIL_CALLBACK", "Verus", "WindowedMax",
    "WindowedMin",
]
