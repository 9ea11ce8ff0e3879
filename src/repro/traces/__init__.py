"""Workload, mobility and cell-activity trace generators.

Everything the experiments need that the paper obtained from the real
world: offered-load schedules, random background users, scripted RSSI
trajectories and diurnal cell populations.  All randomness derives from
explicit seeds (:func:`derived_seed` splits one seed into independent
named streams), so trace-driven runs are replayable.
"""

from .cellactivity import DIURNAL_SHAPE, DiurnalCellActivity, paper_cells
from .mobility import paper_trajectory, random_walk_trajectory
from .seeds import derived_seed
from .workload import OnOffRandomDemand, ScheduledDemand

__all__ = [
    "DIURNAL_SHAPE", "DiurnalCellActivity",
    "OnOffRandomDemand", "ScheduledDemand", "derived_seed", "paper_cells",
    "paper_trajectory", "random_walk_trajectory",
]
