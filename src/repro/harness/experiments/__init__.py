"""Experiment drivers: one module per table/figure of the paper.

Each ``run_*`` function executes the corresponding experiment on the
simulator and returns a result dataclass holding the rows/series the
paper reports.  The claims registry (:mod:`repro.harness.claims`)
names each driver's arguments at reduced and paper scale and the
paper's claims about its result, and is what prints a figure: one line
per claim (``repro experiment NAME``).
"""

from .ablation import run_ablation
from .fig02 import run_fig02
from .fig05 import run_fig05
from .fig06 import run_fig06
from .fig07 import run_fig07
from .fig08 import run_fig08
from .fig11 import run_fig11
from .fig13 import run_fig13_14
from .fig16 import run_fig16_17
from .fig18 import run_fig18_19
from .fig20 import run_fig20
from .fig21 import run_fig21
from .sweep import (
    SweepEntry,
    SweepResult,
    entry_to_dict,
    run_stationary_sweep,
    sweep_jobs,
)
from .table1 import table1_from_sweep

__all__ = [
    "SweepEntry", "SweepResult", "entry_to_dict", "run_ablation",
    "run_fig02", "run_fig05", "run_fig06", "run_fig07", "run_fig08",
    "run_fig11",
    "run_fig13_14", "run_fig16_17", "run_fig18_19", "run_fig20",
    "run_fig21", "run_stationary_sweep", "sweep_jobs",
    "table1_from_sweep",
]
