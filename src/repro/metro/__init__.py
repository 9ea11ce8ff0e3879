"""Metro shards: one many-carrier cell group as an experiment.

Generates a seeded city-scale grid — component carriers with per-cell
frequency/bandwidth tiers, diurnal user populations driven by the
``repro.traces`` activity processes, trajectory-driven walkers handing
over between cells, and coexistence fleets of PBE/cubic/BBR flows on
busy cells — and wires one site-aligned shard of it into a
:class:`repro.harness.Experiment`.  Almost every cell of a sparse
shard is unobservable, which is what the dormant-cell catch-up of
:class:`repro.cell.CellularNetwork` exists for.

Entry points: :func:`shard_jobs` (a :class:`MetroSet`'s shard plans),
:func:`build_shard` (wire one up) and :func:`shard_fingerprint` (run
one and digest it).
"""

from .grid import GridSpec, build_grid
from .mobility import walker_plan
from .population import population_plan
from .sets import MetroSet
from .shard import build_shard, shard_fingerprint, shard_jobs

__all__ = [
    "GridSpec", "MetroSet", "build_grid", "build_shard",
    "population_plan", "shard_fingerprint", "shard_jobs", "walker_plan",
]
