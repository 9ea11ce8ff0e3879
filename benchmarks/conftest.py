"""Shared fixtures for the benchmark suite.

Benchmark scale: by default every experiment runs a *reduced* version
of the paper's setup (fewer locations, shorter flows) so the whole
suite finishes in tens of minutes.  Set ``REPRO_FULL=1`` in the
environment to run the paper-scale versions (40 locations, 40-second
flows) — that is what EXPERIMENTS.md records.

The shared sweep is built through :mod:`repro.exec`: ``REPRO_JOBS``
sets the worker-process count (default: one per CPU, capped at 8) and
``REPRO_CACHE_DIR`` points the content-addressed result cache at a
directory, so repeated benchmark invocations only re-simulate runs
whose inputs changed.  The sweep is fixture *setup* — the timed bodies
(the table/figure reductions) are untouched by parallelism.
"""

import os

import pytest

from repro.exec import make_runner
from repro.harness.experiments import run_stationary_sweep

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Reduced-scale knobs (paper-scale value in the comment).
SWEEP_BUSY = 25 if FULL else 5           # 25
SWEEP_IDLE = 15 if FULL else 3           # 15
SWEEP_DURATION_S = 20.0 if FULL else 6.0  # 20 s flows
LONG_RUN_S = 40.0 if FULL else 16.0      # mobility / competition
FAIRNESS_SCALE = 1.0 if FULL else 0.2    # 60 s fairness schedule

#: Execution knobs for the shared sweep (see repro.exec).
SWEEP_JOBS = int(os.environ.get("REPRO_JOBS", "0") or 0) \
    or min(os.cpu_count() or 1, 8)
SWEEP_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None


@pytest.fixture(scope="session")
def stationary_sweep():
    """One shared sweep feeding Table 1, Figure 12 and Figure 15."""
    return run_stationary_sweep(
        schemes=("pbe", "bbr", "cubic", "verus", "copa"),
        n_busy=SWEEP_BUSY, n_idle=SWEEP_IDLE,
        duration_s=SWEEP_DURATION_S,
        runner=make_runner(jobs=SWEEP_JOBS, cache_dir=SWEEP_CACHE_DIR))
