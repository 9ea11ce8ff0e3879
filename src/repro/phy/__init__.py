"""LTE physical-layer substrate.

Everything the paper's §3 primer describes: the PRB grid, CQI/MCS
tables, SINR channel models, the transport-block error model of
Figure 6, HARQ retransmission timing with the receiver reordering
buffer of Figure 3, downlink control messages (DCI) and component-
carrier descriptions for carrier aggregation.
"""

from ..net.units import SUBFRAME_US
from .carrier import AggregationState, CarrierConfig
from .channel import (
    NOISE_FLOOR_DBM,
    ChannelModel,
    GaussMarkovChannel,
    StaticChannel,
    TraceChannel,
    rssi_to_sinr_db,
)
from .dci import DciMessage, SubframeRecord
from .error import (
    HARQ_COMBINING_GAIN,
    block_error_rate,
    retransmission_ber,
    sinr_to_ber,
)
from .harq import (
    MAX_RETRANSMISSIONS,
    RETX_DELAY_SUBFRAMES,
    ReorderingBuffer,
)
from .mcs import (
    DATA_RE_PER_PRB,
    MAX_MCS_INDEX,
    MCS_TABLE,
    McsEntry,
    bits_per_prb,
    max_bits_per_prb,
    sinr_to_mcs,
)
from .prb import PRBS_PER_BANDWIDTH_MHZ, prbs_for_bandwidth

__all__ = [
    "AggregationState", "CarrierConfig", "ChannelModel", "DATA_RE_PER_PRB",
    "DciMessage", "GaussMarkovChannel", "HARQ_COMBINING_GAIN",
    "MAX_MCS_INDEX", "MAX_RETRANSMISSIONS", "MCS_TABLE", "McsEntry",
    "NOISE_FLOOR_DBM", "PRBS_PER_BANDWIDTH_MHZ",
    "RETX_DELAY_SUBFRAMES", "ReorderingBuffer", "SUBFRAME_US",
    "StaticChannel", "SubframeRecord", "TraceChannel", "bits_per_prb",
    "block_error_rate", "max_bits_per_prb", "prbs_for_bandwidth",
    "retransmission_ber", "rssi_to_sinr_db", "sinr_to_ber", "sinr_to_mcs",
]
