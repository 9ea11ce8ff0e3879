"""PBE physical-layer bandwidth measurement module (the paper's §4.2.1/§5).

The mobile-endpoint measurement stack: per-cell control-channel
decoders folding each record into its cell's estimator, active-user
filtering, capacity estimation (Eqns. 1-4) and cross-layer rate
translation (Eqn. 5), packaged behind :class:`PbeMonitor`.
"""

from .capacity import CellCapacityEstimator, CellEstimate, CellSample
from .decoder import (
    N_DCI_FORMATS,
    N_SEARCH_POSITIONS,
    ControlChannelDecoder,
)
from .filters import (
    DEFAULT_WINDOW_SUBFRAMES,
    MIN_ACTIVE_SUBFRAMES,
    MIN_AVG_PRBS,
    ActiveUserFilter,
    UserActivity,
)
from .pbe import SECONDARY_INACTIVE_TIMEOUT, MonitorReport, PbeMonitor
from .translation import TranslationTable, transport_from_physical

__all__ = [
    "ActiveUserFilter", "CellCapacityEstimator", "CellEstimate",
    "CellSample", "ControlChannelDecoder", "DEFAULT_WINDOW_SUBFRAMES",
    "MIN_ACTIVE_SUBFRAMES", "MIN_AVG_PRBS",
    "MonitorReport", "N_DCI_FORMATS", "N_SEARCH_POSITIONS",
    "PbeMonitor", "SECONDARY_INACTIVE_TIMEOUT", "TranslationTable",
    "UserActivity", "transport_from_physical",
]
