"""Worker-side execution of one :class:`Job`.

Kept in its own module so :func:`execute_job` is a plain top-level
function that pickles cleanly into :class:`ProcessPoolExecutor`
workers.  The inline (``jobs=1``) path calls the very same function,
which is what guarantees parallel and serial sweeps return identical
payloads.
"""

from __future__ import annotations

import json
import os
import signal

from .job import Job


def initialize_worker(role: str = "pool") -> None:
    """Worker initializer (pool children and fleet workers).

    Pins the math libraries to one thread per worker (the parallelism
    budget belongs to the process pool / fleet, not to BLAS), then
    configures signals by *role*:

    ``"pool"`` (the :class:`ProcessPoolExecutor` initializer default)
    ignores SIGINT **and** SIGTERM so a Ctrl-C (or a terminal-wide
    TERM) interrupts only the parent, whose
    :class:`repro.exec.SignalDrain` then drains in-flight jobs cleanly
    — completed jobs already sit in the result store, making
    interrupted sweeps resumable.

    ``"fleet"`` ignores only SIGINT: its driver stops a fleet worker
    with SIGTERM once the stop sentinel has had its grace, so SIGTERM
    must reach the worker loop's own two-stage handler (finish or
    abandon the leased job, release the lease, then exit) instead of
    being swallowed — an unconditional SIG_IGN here once made fleet
    workers unkillable except by SIGKILL.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    signals = ((signal.SIGINT, signal.SIGTERM) if role == "pool"
               else (signal.SIGINT,))
    for sig in signals:
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main
            pass


def execute_job(job: Job) -> dict:
    """Run one job to completion and return its result payload.

    Dispatches through ``job.execute()`` (any fingerprinted job type —
    single-flow :class:`Job`, a claims-registry run — runs through the
    same pool), then round-trips the payload through JSON so that fresh
    results are byte-identical to cache-loaded ones (string dictionary
    keys, JSON float formatting) regardless of where they were
    produced.
    """
    return json.loads(json.dumps(job.execute()))
