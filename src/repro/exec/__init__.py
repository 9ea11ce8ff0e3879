"""Parallel experiment execution with content-addressed memoization.

Every simulation in this repository is an independent, deterministic,
seed-keyed run — embarrassingly parallel and perfectly cacheable.  This
package is the backbone that exploits both properties:

* :class:`Job` — one (scenario, scheme, overrides) simulation with a
  deterministic fingerprint of its inputs and the code;
* :class:`ResultStore` — a disk cache of completed payloads keyed by
  fingerprint, written atomically inside a checksummed envelope;
  invalid entries are quarantined (never silently deleted) and
  ``python -m repro cache verify|gc`` audits and repairs the store.
  It is the one record of which jobs are done: re-running a sweep on
  the same store *is* the resume (finished fingerprints are cache
  hits; failures are never stored, so they re-attempt);
* :class:`ParallelRunner` — fans jobs out over a process pool (with
  inline fallback, concurrent per-job deadlines and crash retries with
  jittered backoff), memoizes through the store, isolates per-job
  failures as :class:`JobFailure` records, and drains cleanly on
  SIGINT/SIGTERM (:class:`SweepInterrupted`).

The stationary sweep, the claims registry, the benchmark suite and
``python -m repro sweep`` all submit through here.
"""

from ..harness.serialize import canonical_json
from .backend import (
    ExecBackend,
    ProbeJob,
    ProcessPoolBackend,
    job_from_wire,
    job_to_wire,
    wire_kind_of,
)
from .chaos import ChaosSpec, chaos_events
from .fleet import (
    FleetBackend,
    FleetWorker,
    RemoteJobError,
    WorkerLostError,
    fleet_status,
    run_worker,
    spawn_local_workers,
)
from .job import Job, scenario_to_dict
from .runner import (
    JobEvent,
    JobExecutionError,
    ParallelRunner,
    RunnerStats,
    StderrReporter,
    make_runner,
)
from .store import ResultStore, StoreStats, payload_checksum, seal, unseal
from .supervisor import (
    BackoffPolicy,
    FailureBudgetExceeded,
    JobFailure,
    SignalDrain,
    SweepInterrupted,
    is_failure,
)
from .worker import execute_job, initialize_worker

__all__ = [
    "BackoffPolicy", "ChaosSpec", "ExecBackend",
    "FailureBudgetExceeded", "FleetBackend", "FleetWorker", "Job",
    "JobEvent", "JobExecutionError", "JobFailure", "ParallelRunner",
    "ProbeJob", "ProcessPoolBackend", "RemoteJobError", "ResultStore",
    "RunnerStats", "SignalDrain", "StderrReporter", "StoreStats",
    "SweepInterrupted", "WorkerLostError", "canonical_json",
    "chaos_events", "execute_job", "fleet_status", "initialize_worker",
    "is_failure", "job_from_wire", "job_to_wire", "make_runner",
    "payload_checksum", "run_worker",
    "scenario_to_dict", "seal", "spawn_local_workers", "unseal",
    "wire_kind_of",
]
