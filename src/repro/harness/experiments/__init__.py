"""Experiment drivers: one module per table/figure of the paper.

Each ``run_*`` function executes the corresponding experiment on the
simulator and returns a structured result with a ``format()`` method
that prints the same rows/series the paper reports.  The claims
registry (:mod:`repro.harness.claims`) names each driver's arguments at
reduced and paper scale and the paper's claims about its result.
"""

from .ablation import run_ablation
from .fig02 import run_fig02
from .fig05 import run_fig05
from .fig06 import run_fig06
from .fig07 import run_fig07
from .fig08 import run_fig08
from .fig11 import run_fig11
from .fig12 import fig12_from_sweep
from .fig13 import run_fig13_14
from .fig15 import fig15_from_sweep
from .fig16 import run_fig16_17
from .fig18 import run_fig18_19
from .fig20 import run_fig20
from .fig21 import run_fig21
from .resilience import (
    ResilienceEntry,
    ResilienceResult,
    resilience_jobs,
    run_resilience,
)
from .sweep import (
    SweepEntry,
    SweepResult,
    entry_to_dict,
    run_stationary_sweep,
    sweep_jobs,
)
from .table1 import table1_from_sweep

__all__ = [
    "ResilienceEntry", "ResilienceResult", "SweepEntry", "SweepResult",
    "entry_to_dict", "fig12_from_sweep",
    "fig15_from_sweep", "resilience_jobs", "run_ablation",
    "run_fig02", "run_fig05", "run_fig06", "run_fig07", "run_fig08",
    "run_fig11",
    "run_fig13_14", "run_fig16_17", "run_fig18_19", "run_fig20",
    "run_fig21", "run_resilience", "run_stationary_sweep", "sweep_jobs",
    "table1_from_sweep",
]
