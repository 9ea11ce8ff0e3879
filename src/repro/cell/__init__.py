"""Base-station MAC layer: scheduling, HARQ, queues and carrier aggregation.

This package is the "cellular network" half of the substitution table in
DESIGN.md — it reproduces the observable behaviour of a commercial LTE
deployment: per-user downlink buffers, an equal-share PRB scheduler,
8 ms HARQ retransmissions, control-plane background users and
utilization-driven secondary-cell activation.
"""

from .basestation import (
    CONTROL_MCS,
    MIMO_SINR_THRESHOLD_DB,
    CellularNetwork,
    DemandSource,
)
from .ca_manager import CarrierAggregationManager
from .control_traffic import (
    CONTROL_RNTI_BASE,
    ControlBurst,
    ControlTrafficGenerator,
)
from .queues import DownlinkQueue, TransportBlock
from .scheduler import DemandEntry, allocate_prbs
from .ue import UserEquipment

__all__ = [
    "CONTROL_MCS", "CONTROL_RNTI_BASE", "CarrierAggregationManager",
    "CellularNetwork", "ControlBurst", "ControlTrafficGenerator",
    "DemandEntry", "DemandSource", "DownlinkQueue",
    "MIMO_SINR_THRESHOLD_DB", "TransportBlock", "UserEquipment",
    "allocate_prbs",
]
