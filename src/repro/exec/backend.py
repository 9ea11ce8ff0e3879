"""Pluggable execution backends for the sweep runner.

:class:`repro.exec.ParallelRunner` owns the sweep-level semantics —
dedup, memoization, deadlines, retries, failure isolation, signal
drains — and delegates the *mechanics* of running one job
somewhere else to an :class:`ExecBackend`:

* :class:`ProcessPoolBackend` — the original
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out on the
  local machine (one backend instance per retry round, recreated so a
  hung worker can be abandoned with its pool);
* :class:`repro.exec.fleet.FleetBackend` — a shared on-disk work queue
  that the backend's own worker subprocesses pull from, each job held
  by one worker's exclusive lease.

The contract is deliberately future-shaped: ``submit`` returns an
opaque handle, ``wait`` blocks until at least one handle settles (or a
timeout passes), ``result`` returns the payload or raises — the job's
own exception for a job-level error, an :class:`OSError` subclass
(e.g. :class:`repro.exec.fleet.WorkerLostError`) when the *worker*
died, which the runner treats as retryable exactly like a crashed pool
process.

Because fleet workers receive jobs through a directory instead of a
pickle stream, jobs cross the wire as JSON (:func:`job_to_wire` /
:func:`job_from_wire`).  Any job type used with a fleet must have a
registered reconstructor; the built-in kinds are the single-flow
:class:`repro.exec.Job` and the fabric-testing :class:`ProbeJob`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from ..harness.serialize import fingerprint_of
from .job import Job
from .worker import execute_job, initialize_worker


class ExecBackend(ABC):
    """Where one round of sweep jobs actually executes.

    Handles are opaque to the runner; a backend may use futures, file
    paths or anything hashable.  ``persistent`` backends survive retry
    rounds (the runner shuts them down once, at the end of the sweep);
    non-persistent ones are created per round via the runner's backend
    factory and shut down when the round ends.
    """

    #: Human-readable backend name (telemetry / progress lines).
    name = "?"
    #: True: one instance serves every retry round of a sweep.  False:
    #: the runner builds a fresh instance per round (which is how a
    #: hung pool worker gets abandoned with its pool).
    persistent = False
    #: Concurrent-submission throttle for the runner, or ``None`` for
    #: "submit everything" (queue-based backends pace themselves).
    capacity: Optional[int] = None

    @abstractmethod
    def submit(self, job) -> object:
        """Start (or enqueue) one job; returns an opaque handle."""

    @abstractmethod
    def wait(self, handles: Set[object], timeout: float) -> Set[object]:
        """Block until ≥1 handle settles or ``timeout`` elapses.

        Returns the settled subset (possibly empty on timeout).
        """

    @abstractmethod
    def result(self, handle) -> dict:
        """The payload of a settled handle.

        Raises the job's own exception for job-level errors, or an
        :class:`OSError` subclass when the executing worker was lost
        (crash, expired lease, corrupt result in transit) — the runner
        retries those.
        """

    @abstractmethod
    def cancel(self, handle) -> bool:
        """Try to cancel; True iff the job never started executing."""

    def done(self, handle) -> bool:
        """True when the handle has settled (result or error ready)."""
        return False

    def exec_elapsed(self, handle, submitted_elapsed: float) -> float:
        """Seconds of *execution* behind a handle, for deadline checks.

        ``submitted_elapsed`` is time since the runner submitted the
        handle; backends that start jobs immediately (the pool, which
        the runner feeds at most ``workers`` jobs at a time) return it
        unchanged, while queue-based backends subtract time the job
        spent waiting unclaimed.
        """
        return submitted_elapsed

    @abstractmethod
    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        """Release the backend's resources."""


class ProcessPoolBackend(ExecBackend):
    """The local :class:`ProcessPoolExecutor` fan-out (the default).

    A thin veneer: handles are the executor's futures, so the runner's
    deadline/zombie semantics are byte-identical to the pre-backend
    runner (``wait``/``cancel``/``result`` map 1:1 onto the future
    API).
    """

    name = "pool"
    persistent = False

    def __init__(self, workers: int,
                 executor: Optional[ProcessPoolExecutor] = None) -> None:
        self.capacity = workers
        self._executor = executor if executor is not None else \
            ProcessPoolExecutor(max_workers=workers,
                                initializer=initialize_worker)

    def submit(self, job):
        return self._executor.submit(execute_job, job)

    def wait(self, handles, timeout):
        done, _ = wait(handles, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        return done

    def result(self, handle):
        return handle.result()

    def cancel(self, handle):
        return handle.cancel()

    def done(self, handle):
        return handle.done()

    def shutdown(self, wait=True, cancel_futures=False):
        self._executor.shutdown(wait=wait,
                                cancel_futures=cancel_futures)


# ---------------------------------------------------------------------
# Wire format: jobs as JSON, for backends whose workers live in other
# processes (or on other machines) and cannot receive a pickle.

@dataclass
class ProbeJob:
    """A tiny deterministic job for exercising the execution fabric.

    The runner and fleet tests need jobs whose wall time and payload
    are fully controllable without paying for a simulation.  ``params`` keys: ``id`` (any JSON value),
    ``sleep_s`` (busy-wait wall time), ``value`` (echoed into the
    payload), ``fail`` (truthy → raise ``RuntimeError``).
    """

    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"probe/{self.params.get('id', '?')}"

    def to_dict(self) -> dict:
        return {"kind": "probe", "params": self.params}

    def fingerprint(self) -> str:
        return fingerprint_of(self.to_dict())

    def execute(self) -> dict:
        if self.params.get("fail"):
            raise RuntimeError(
                f"probe {self.params.get('id')} asked to fail")
        sleep_s = float(self.params.get("sleep_s", 0.0))
        if sleep_s > 0:
            time.sleep(sleep_s)
        return {"probe": self.params.get("id"),
                "value": self.params.get("value", 0)}


def _flow_job_from_spec(spec: dict) -> Job:
    """Rebuild a single-flow :class:`Job` from its ``to_dict`` form."""
    from ..harness.scenarios import Scenario
    from ..phy.carrier import CarrierConfig
    scenario = dict(spec["scenario"])
    scenario["carriers"] = [CarrierConfig(**c)
                            for c in scenario.get("carriers", [])]
    # JSON round-trips tuples to lists (canonically identical) and
    # integer dict keys to strings (the simulator looks cells up by
    # int) — normalize what execution is sensitive to.
    if scenario.get("background_rate_range") is not None:
        scenario["background_rate_range"] = tuple(
            scenario["background_rate_range"])
    if scenario.get("control_arrivals_by_cell") is not None:
        scenario["control_arrivals_by_cell"] = {
            int(k): v
            for k, v in scenario["control_arrivals_by_cell"].items()}
    return Job(scenario=Scenario(**scenario), scheme=spec["scheme"],
               spec_overrides=dict(spec.get("spec_overrides", {})))


#: kind -> reconstructor(spec_dict) -> job: every job kind a fleet
#: worker can rebuild.
_JOB_KINDS: Dict[str, Callable[[dict], object]] = {
    "flow": _flow_job_from_spec,
    "probe": lambda spec: ProbeJob(params=spec["params"]),
}


def wire_kind_of(job) -> Optional[str]:
    """The wire ``kind`` of a job instance, or None if unregistered."""
    if isinstance(job, Job):
        return "flow"
    if isinstance(job, ProbeJob):
        return "probe"
    return None


def job_to_wire(job) -> dict:
    """Encode one job for the shared fleet queue.

    The driver's already-computed fingerprint rides along so workers
    never re-derive it (fingerprints key leases, results and the
    store, and must match the driver's bit-for-bit).
    """
    kind = wire_kind_of(job)
    if kind is None:
        raise TypeError(
            f"{type(job).__name__} has no registered wire kind; fleet "
            f"workers rebuild only {sorted(_JOB_KINDS)} jobs")
    return {"kind": kind, "fingerprint": job.fingerprint(),
            "label": job.label, "spec": job.to_dict()}


def job_from_wire(data: dict):
    """Rebuild the job a :func:`job_to_wire` entry describes; a bad
    entry raises :class:`ValueError` naming the field, ``kind`` or
    ``spec``."""
    kind = data.get("kind") if isinstance(data, dict) else None
    loader = _JOB_KINDS.get(kind)
    if loader is None:
        raise ValueError(f"unknown wire job kind {kind!r}; known: "
                         f"{sorted(_JOB_KINDS)}")
    try:
        return loader(data.get("spec"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"wire job of kind {kind!r} has a bad spec: "
                         f"{type(exc).__name__}: {exc}") from exc
