"""Metro-scale scenario engine (ROADMAP item 1).

Generates seeded city-scale deployments — hundreds of component
carriers with per-cell frequency/bandwidth tiers, diurnal user
populations driven by the ``repro.traces`` activity processes,
trajectory-driven walkers handing over between cells, and coexistence
fleets of concurrent PBE/cubic/BBR flows on busy cells — then shards
the grid into fingerprinted jobs for the supervised ``repro.exec``
runner and reports a per-cell fairness/capacity matrix.

Entry points: ``python -m repro metro`` (CLI), :func:`run_metro`
(library), :func:`metro_scenario_sets` (the named-set registry).
"""

from .driver import (MetroRunResult, resolve_set, run_metro,
                     shard_jobs)
from .grid import (CARRIER_TIERS, GridSpec, MetroCell, MetroGrid,
                   build_grid)
from .mobility import handovers_into, walker_plan
from .population import cell_activity, offered_counts, population_plan
from .report import MATRIX_SCHEMA, build_matrix, format_summary
from .sets import MetroSet, metro_scenario_sets
from .shard import (SHARD_SCHEMA, MetroShardJob, build_shard, run_shard,
                    shard_fingerprint)

__all__ = [
    "CARRIER_TIERS", "GridSpec", "MATRIX_SCHEMA", "MetroCell",
    "MetroGrid", "MetroRunResult", "MetroSet", "MetroShardJob",
    "SHARD_SCHEMA", "build_grid", "build_matrix",
    "build_shard", "cell_activity", "format_summary",
    "handovers_into", "metro_scenario_sets", "offered_counts",
    "population_plan", "resolve_set", "run_metro", "run_shard",
    "shard_fingerprint", "shard_jobs", "walker_plan",
]
