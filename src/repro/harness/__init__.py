"""Pantheon-like evaluation harness (§6.1).

Scenario definitions, the experiment runner and the paper's
measurement conventions (100 ms throughput windows, one-way-delay
order statistics, Jain's fairness index).
"""

from .metrics import (
    ORDER_STATS,
    WINDOW_US,
    FlowSummary,
    jain_index,
    percentile,
    summarize_flow,
    windowed_throughput_bps,
)
from .runner import (
    SCHEMES,
    Experiment,
    FlowHandle,
    FlowResult,
    FlowSpec,
    make_cc,
    run_flow,
)
from .scenarios import (
    Scenario,
    default_carriers,
    representative_locations,
    stationary_locations,
)
from .serialize import (
    result_to_dict,
    summary_from_dict,
    summary_to_dict,
    write_json_atomic,
)

__all__ = [
    "Experiment", "FlowHandle", "FlowResult", "FlowSpec", "FlowSummary",
    "ORDER_STATS", "SCHEMES", "Scenario", "WINDOW_US", "default_carriers",
    "jain_index", "make_cc", "percentile",
    "representative_locations", "result_to_dict", "run_flow",
    "stationary_locations", "summarize_flow",
    "summary_from_dict", "summary_to_dict", "windowed_throughput_bps",
    "write_json_atomic",
]
