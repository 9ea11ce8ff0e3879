"""The paper-shape gate's one pass over the collected claims' figures,
at each figure's ``reduced`` scale.  ``REPRO_JOBS`` sets the
worker-process count (default: one per CPU, capped at 8) and
``REPRO_CACHE_DIR`` the result cache directory.
"""

import os

import pytest

from repro.exec import make_runner
from repro.harness.claims import Runs


@pytest.fixture(scope="session")
def runs(request):
    jobs = (int(os.environ.get("REPRO_JOBS") or 0)
            or min(os.cpu_count() or 1, 8))
    runs = Runs("reduced", make_runner(
        jobs=jobs, cache_dir=os.environ.get("REPRO_CACHE_DIR") or None))
    runs.run(item.callspec.params["figure"]
             for item in request.session.items
             if "runs" in getattr(item, "fixturenames", ()))
    return runs
