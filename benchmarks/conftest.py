"""The paper-shape gate's one session of driver runs.

Every claim of :mod:`repro.harness.claims` runs at its figure's
``reduced`` scale (fewer locations, shorter flows); the paper-scale
record is ``scripts/record_experiments.py``.  Each driver runs once per
session and its claims share the result.  The multi-job drivers (the
stationary sweep, Figures 13-14, the ablations) go through
:mod:`repro.exec`: ``REPRO_JOBS`` sets the worker-process count
(default: one per CPU, capped at 8) and ``REPRO_CACHE_DIR`` points the
content-addressed result cache at a directory.
"""

import os

import pytest

from repro.exec import make_runner
from repro.harness.claims import Runs


@pytest.fixture(scope="session")
def runs():
    jobs = (int(os.environ.get("REPRO_JOBS") or 0)
            or min(os.cpu_count() or 1, 8))
    return Runs("reduced", make_runner(
        jobs=jobs, cache_dir=os.environ.get("REPRO_CACHE_DIR") or None))
