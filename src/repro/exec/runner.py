"""Parallel, memoized, supervised execution of independent jobs.

Every job is an independent, deterministic, seed-keyed simulation —
embarrassingly parallel — so the runner fans pending jobs out over a
:class:`ProcessPoolExecutor` and fills the rest from the result store.
The execution plan for one :meth:`ParallelRunner.run` call:

1. fingerprint every job; duplicates collapse onto one execution;
2. satisfy what the :class:`ResultStore` already holds (cache hits);
3. execute the remainder — inline when no deadline is set and
   ``jobs=1`` or one job is pending (or the platform has no working
   process pool), otherwise across worker processes with concurrent
   per-job deadlines and retry-on-worker-crash;
4. persist each payload the moment it completes.  The store is the
   only record of a finished job: re-running the same sweep *is* the
   resume (finished fingerprints are cache hits, failures are never
   stored so they re-attempt).

Supervision (see :mod:`repro.exec.supervisor`): a job whose own code
raises becomes a structured :class:`JobFailure` in its result slot
instead of aborting the sweep (``strict=True`` restores
abort-on-first-failure), a failure-budget circuit breaker aborts early
when too large a fraction of jobs fail, retries back off exponentially
with deterministic jitter, and SIGINT/SIGTERM drain in-flight work
(every finished payload is already in the store) before raising
:class:`SweepInterrupted` (a second signal hard-aborts).

Results come back in submission order, and ``runner.stats`` describes
the last run (executed / cached / failed / quarantined counts, per-job
wall times, cache hit rate).
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..checks import require_real
from .backend import ExecBackend, ProcessPoolBackend
from .job import Job
from .store import ResultStore
from .supervisor import (
    BackoffPolicy,
    FailureBudgetExceeded,
    JobFailure,
    SignalDrain,
    SweepInterrupted,
)
from .worker import execute_job, initialize_worker

#: Exceptions that mean "this worker process died", not "the job's own
#: code raised" — only these (and timeouts) are retried.
_CRASH_ERRORS = (BrokenProcessPool, OSError)

#: Upper bound on one ``wait()`` nap, so signal drains stay responsive
#: even when no deadline is near.
_WAIT_SLICE_S = 0.5


class JobExecutionError(RuntimeError):
    """A job exhausted its retries (worker crashes or timeouts)."""

    def __init__(self, job: Job, cause: BaseException) -> None:
        super().__init__(f"job {job.label} failed after retries: "
                         f"{cause!r}")
        self.job = job
        self.cause = cause


@dataclass
class JobEvent:
    """One progress notification passed to the runner's callback."""

    #: "cached", "executed", "failed", "retry" or "fallback".
    kind: str
    done: int
    total: int
    cache_hits: int
    job: Optional[Job] = None
    wall_s: Optional[float] = None
    detail: str = ""


@dataclass
class RunnerStats:
    """Telemetry for one :meth:`ParallelRunner.run` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    retries: int = 0
    #: Jobs that ended as a :class:`JobFailure` (non-strict mode).
    failed: int = 0
    #: Cache entries quarantined as invalid during this run.
    quarantined: int = 0
    #: Total seconds slept in retry backoff.
    backoff_s: float = 0.0
    #: Fleet backend only: leases the driver released because their
    #: worker exited mid-job (each one a job retried).
    lease_reclaims: int = 0
    #: Fleet backend only: dead local workers respawned by the driver.
    worker_restarts: int = 0
    job_wall_s: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def format(self) -> str:
        fleet = ""
        if self.lease_reclaims or self.worker_restarts:
            fleet = (f", {self.lease_reclaims} leases reclaimed, "
                     f"{self.worker_restarts} workers respawned")
        return (f"{self.total} jobs: {self.executed} executed, "
                f"{self.cache_hits} cached "
                f"({100 * self.cache_hit_rate:.0f}% hit rate), "
                f"{self.deduplicated} deduplicated, "
                f"{self.retries} retries, {self.failed} failed, "
                f"{self.quarantined} quarantined, "
                f"{self.backoff_s:.1f}s backoff{fleet}, "
                f"{self.wall_s:.1f}s wall")


class StderrReporter:
    """Minimal progress callback: one stderr line per finished job."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: JobEvent) -> None:
        if event.kind == "fallback":
            print(f"[repro.exec] {event.detail}", file=self.stream,
                  flush=True)
            return
        label = event.job.label if event.job is not None else "?"
        wall = (f" {event.wall_s:.1f}s" if event.wall_s is not None
                else "")
        detail = f" [{event.detail}]" if event.detail else ""
        print(f"[repro.exec] {event.done}/{event.total} {event.kind} "
              f"{label}{wall}{detail} ({event.cache_hits} cached)",
              file=self.stream, flush=True)


class ParallelRunner:
    """Fans jobs out over worker processes, memoizing via a store.

    ``jobs=1`` without a deadline executes inline (no pool, no
    pickling) — the worker path calls the identical
    :func:`execute_job`, so both modes return byte-identical payloads.
    ``timeout_s`` is a per-job *execution* deadline; only a pool can
    enforce one, so setting it routes even ``jobs=1`` or a single
    pending job through a worker process.  It is enforced
    *concurrently* across all in-flight jobs (stall detection for k
    slow jobs is O(timeout), not O(k × timeout)); jobs are handed to
    the pool only as workers free up, so the clock never runs down on
    a job that is merely queued behind a full pool — queue wait is not
    execution time and consumes no attempts.  ``retries`` is how many
    times a job is re-submitted after a worker crash or timeout (with
    exponential backoff and deterministic jitter) before the failure
    becomes terminal.

    Terminal failures: with ``strict=False`` (default) a failed job —
    its own code raised, its deadline expired, or its worker crashed
    repeatedly — leaves a structured :class:`JobFailure` in its result
    slot and the sweep continues; ``strict=True`` restores the
    abort-on-first-failure behaviour (the job's own exception, or a
    :class:`JobExecutionError` for crashes/timeouts).
    ``failure_budget`` (a fraction) aborts the whole sweep with
    :class:`FailureBudgetExceeded` once more than that share of jobs
    has failed.  SIGINT/SIGTERM drain in-flight work and raise
    :class:`SweepInterrupted`; what finished is in the store.
    """

    def __init__(self, jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 retries: int = 1,
                 timeout_s: Optional[float] = None,
                 progress: Optional[Callable[[JobEvent], None]] = None,
                 strict: bool = False,
                 failure_budget: Optional[float] = None,
                 backoff: Optional[BackoffPolicy] = None,
                 handle_signals: bool = True,
                 backend: Optional[ExecBackend] = None,
                 ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None:
            require_real("timeout_s", timeout_s)
            if timeout_s <= 0:
                raise ValueError("timeout_s must be positive")
        if failure_budget is not None and not 0 <= failure_budget <= 1:
            raise ValueError("failure_budget is a fraction in [0, 1]")
        self.jobs = jobs
        self.store = store
        self.retries = retries
        self.timeout_s = timeout_s
        self.progress = progress
        self.strict = strict
        self.failure_budget = failure_budget
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.handle_signals = handle_signals
        #: Explicit execution backend (e.g. a
        #: :class:`repro.exec.fleet.FleetBackend`).  ``None`` keeps the
        #: default behaviour: a fresh :class:`ProcessPoolBackend` per
        #: retry round, with inline fallback when the platform has no
        #: usable process pool.
        self.backend = backend
        self.stats = RunnerStats()
        self._done = 0
        #: True while the current pool round holds a timed-out worker
        #: that refused cancellation (possibly hung).  Lives on the
        #: instance, not in a local, so it survives exceptions raised
        #: out of the collection loop (strict mode, failure budget) —
        #: the shutdown path must never join a hung worker.
        self._hung_worker = False

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> list:
        """Execute (or recall) every job; payloads in submission order.

        Non-strict mode: a slot may hold a :class:`JobFailure` instead
        of a payload dictionary (filter with
        :func:`repro.exec.is_failure`).
        """
        jobs = list(jobs)
        self.stats = RunnerStats(total=len(jobs))
        self._done = 0
        t0 = time.monotonic()
        quarantined_before = (self.store.quarantine_events
                              if self.store is not None else 0)

        fingerprints = [job.fingerprint() for job in jobs]
        results: list = [None] * len(jobs)
        first_index: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []
        pending: list[tuple[int, Job]] = []
        for i, (job, fp) in enumerate(zip(jobs, fingerprints)):
            if fp in first_index:
                duplicates.append((i, first_index[fp]))
                self.stats.deduplicated += 1
                continue
            first_index[fp] = i
            cached = self.store.get(fp) if self.store else None
            if cached is not None:
                results[i] = cached
                self.stats.cache_hits += 1
                self._done += 1
                self._emit("cached", job=job)
            else:
                pending.append((i, job))

        drain = SignalDrain(enabled=self.handle_signals)
        try:
            with drain:
                if pending:
                    # Only a pool can enforce a deadline, so the
                    # inline shortcut is for deadline-free runs.
                    if (self.backend is None and self.timeout_s is None
                            and (self.jobs == 1 or len(pending) == 1)):
                        self._run_inline(pending, fingerprints, results,
                                         drain)
                    else:
                        self._run_pool(pending, fingerprints, results,
                                       drain)
        except BaseException:
            # Any propagating abort — FailureBudgetExceeded, a
            # strict-mode job exception, JobExecutionError, a hard
            # second-signal KeyboardInterrupt — still finalizes stats,
            # so ``stats`` describes the partial run.
            self._finish(t0, quarantined_before)
            raise
        if drain.stop_requested:
            self._finish(t0, quarantined_before)
            raise SweepInterrupted(done=self._done,
                                   total=self.stats.total)

        for i, source in duplicates:
            results[i] = results[source]
            self._done += 1

        self._finish(t0, quarantined_before)
        return results

    def _finish(self, t0: float, quarantined_before: int) -> None:
        self.stats.wall_s = time.monotonic() - t0
        if self.store is not None:
            self.stats.quarantined = (self.store.quarantine_events
                                      - quarantined_before)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, job: Optional[Job] = None,
              wall_s: Optional[float] = None, detail: str = "") -> None:
        if self.progress is None:
            return
        self.progress(JobEvent(
            kind=kind, done=self._done, total=self.stats.total,
            cache_hits=self.stats.cache_hits, job=job, wall_s=wall_s,
            detail=detail))

    def _complete(self, index: int, job: Job, fingerprint: str,
                  payload: dict, wall_s: float, results: list) -> None:
        results[index] = payload
        if self.store is not None:
            self.store.put(fingerprint, payload)
        self.stats.executed += 1
        self.stats.job_wall_s.append(wall_s)
        self._done += 1
        self._emit("executed", job=job, wall_s=wall_s)

    def _fail(self, index: int, job: Job, fingerprint: str, kind: str,
              exc: BaseException, attempts: int, wall_s: float,
              results: list) -> None:
        """Record one terminal failure (non-strict path).

        Failed jobs are never stored, so a re-run re-attempts exactly
        the failures while finished fingerprints stay cache hits.
        """
        failure = JobFailure.from_exception(
            job.label, fingerprint, kind, exc, attempts=attempts,
            wall_s=wall_s)
        results[index] = failure
        self.stats.failed += 1
        self._done += 1
        self._emit("failed", job=job, wall_s=wall_s,
                   detail=f"{failure.kind}: {failure.exc_type}: "
                          f"{failure.message}")
        if (self.failure_budget is not None and self.stats.total
                and self.stats.failed / self.stats.total
                > self.failure_budget):
            raise FailureBudgetExceeded(
                self.stats.failed, self.stats.total,
                self.failure_budget)

    def _run_inline(self, pending: list, fingerprints: list,
                    results: list,
                    drain: Optional[SignalDrain] = None) -> None:
        for index, job in pending:
            if drain is not None and drain.stop_requested:
                return
            started = time.monotonic()
            try:
                payload = execute_job(job)
            except Exception as exc:
                if self.strict:
                    raise
                self._fail(index, job, fingerprints[index], "job-error",
                           exc, attempts=1,
                           wall_s=time.monotonic() - started,
                           results=results)
            else:
                self._complete(index, job, fingerprints[index], payload,
                               time.monotonic() - started, results)

    # ------------------------------------------------------------------
    def _run_pool(self, pending: list, fingerprints: list,
                  results: list, drain: SignalDrain) -> None:
        attempts: dict[int, int] = {}
        queue = list(pending)
        persistent = None
        try:
            while queue and not drain.stop_requested:
                backend = persistent or self._make_backend(len(queue))
                if backend is None:
                    detail = ("process pool unavailable; running "
                              "jobs inline")
                    if self.timeout_s is not None:
                        detail += " (deadlines are not enforced)"
                    self._emit("fallback", detail=detail)
                    self._run_inline(queue, fingerprints, results, drain)
                    return
                if backend.persistent or backend is self.backend:
                    # Fleet backends span rounds by contract; a
                    # caller-supplied backend is the caller's to reuse,
                    # so it must survive rounds too (shut down once,
                    # below).
                    persistent = backend
                capacity = backend.capacity or len(queue)
                retry_queue: list[tuple[int, Job]] = []
                self._hung_worker = False
                try:
                    self._collect(backend, min(capacity, len(queue)),
                                  queue, attempts, retry_queue,
                                  fingerprints, results, drain)
                finally:
                    self._merge_backend_stats(backend)
                    if backend is not persistent:
                        # Waiting reclaims worker processes cleanly;
                        # skip it only when a timed-out (possibly hung)
                        # worker would block the join forever —
                        # including when _collect exited via an
                        # exception (strict mode, failure budget),
                        # which is why the flag lives on self.
                        backend.shutdown(wait=not self._hung_worker,
                                         cancel_futures=True)
                if retry_queue and not drain.stop_requested:
                    self._sleep_backoff(retry_queue, attempts,
                                        fingerprints, drain)
                queue = retry_queue
        finally:
            if persistent is not None:
                # A fleet backend spans every retry round; release it
                # (stop sentinel, local-worker teardown) exactly once,
                # even when an abort propagates.
                self._merge_backend_stats(persistent)
                persistent.shutdown(wait=not self._hung_worker,
                                    cancel_futures=True)

    def _merge_backend_stats(self, backend: ExecBackend) -> None:
        """Fold backend-side telemetry counters into the stats."""
        self.stats.lease_reclaims = getattr(
            backend, "lease_reclaims", self.stats.lease_reclaims)
        self.stats.worker_restarts = getattr(
            backend, "worker_restarts", self.stats.worker_restarts)

    def _collect(self, backend: ExecBackend, workers: int,
                 queue: list, attempts: dict, retry_queue: list,
                 fingerprints: list, results: list,
                 drain: SignalDrain) -> None:
        """Submit and gather one round's jobs with concurrent deadlines.

        Jobs are handed to the pool at most ``workers`` at a time, so a
        submitted job starts executing (almost) immediately and its
        deadline clock measures *execution* — submitting everything up
        front would let queue wait behind a full pool run the clock
        down and pop never-started jobs as spurious timeouts (the pool
        even marks prefetched queue items RUNNING, so cancellation
        cannot tell them apart afterwards).  All in-flight deadlines
        are checked on every wake-up, so k concurrently slow jobs are
        all detected within one timeout, and completed payloads persist
        the moment they finish.

        A timed-out future that refuses cancellation is genuinely
        executing (possibly hung): its failure is recorded, it marks
        ``self._hung_worker`` so the pool shutdown never joins it, and
        it is kept aside as a *zombie* that counts against submission
        capacity until its worker actually returns.  If zombies ever
        hold every worker, the round ends early and the unstarted jobs
        move to a fresh pool with no attempt consumed.
        """
        to_submit = list(queue)
        running: dict = {}
        zombies: set = set()
        while to_submit or running:
            if drain.stop_requested:
                # Stop request: drop what never reached the pool; what
                # is executing drains to completion.
                to_submit.clear()
                for handle in list(running):
                    if backend.cancel(handle):
                        running.pop(handle)
            while (to_submit and not drain.stop_requested
                   and len(running) + len(zombies) < workers):
                index, job = to_submit.pop(0)
                try:
                    handle = backend.submit(job)
                except _CRASH_ERRORS as exc:
                    self._handle_failure(
                        index, job, attempts, retry_queue, exc,
                        crashed=True, fingerprints=fingerprints,
                        results=results)
                    continue
                running[handle] = (index, job, time.monotonic())
            if not running:
                if to_submit and zombies:
                    # Every worker is stuck past its deadline; hand the
                    # unstarted jobs to a fresh pool, attempts intact.
                    retry_queue.extend(to_submit)
                return  # zombies are abandoned to the pool shutdown
            timeout = _WAIT_SLICE_S
            if self.timeout_s is not None:
                now = time.monotonic()
                next_deadline = min(
                    started + self.timeout_s
                    for _, _, started in running.values())
                timeout = min(timeout, max(0.0, next_deadline - now))
            done = backend.wait(set(running) | zombies, timeout=timeout)
            for handle in done:
                if handle in zombies:
                    # Its outcome (timeout) is already recorded; the
                    # worker merely came back — capacity returns.
                    zombies.discard(handle)
                    continue
                index, job, started = running.pop(handle)
                wall_s = time.monotonic() - started
                try:
                    payload = backend.result(handle)
                except _CRASH_ERRORS as exc:
                    self._handle_failure(
                        index, job, attempts, retry_queue, exc,
                        crashed=True, fingerprints=fingerprints,
                        results=results)
                except Exception as exc:
                    # The job's own code raised inside the worker.
                    if self.strict:
                        raise
                    self._fail(index, job, fingerprints[index],
                               "job-error", exc,
                               attempts=attempts.get(index, 0) + 1,
                               wall_s=wall_s, results=results)
                else:
                    self._complete(index, job, fingerprints[index],
                                   payload, wall_s, results)
            if self.timeout_s is None:
                continue
            now = time.monotonic()
            for handle, (index, job, started) in list(running.items()):
                # Queue-based backends subtract unclaimed wait, so the
                # deadline always measures *execution* time, exactly
                # like the pool's submit-throttled clock.
                elapsed = backend.exec_elapsed(handle, now - started)
                if elapsed < self.timeout_s or backend.done(handle):
                    continue  # done handles collect on the next pass
                running.pop(handle)
                if backend.cancel(handle):
                    # Rare race: the pool never picked it up.  Queue
                    # wait is not execution — hand it back with a
                    # fresh clock, no attempt consumed.
                    to_submit.append((index, job))
                    continue
                # Uncancellable: genuinely executing past its deadline.
                # Flag before _handle_failure, which may raise (strict
                # mode, failure budget) — shutdown must see the flag.
                self._hung_worker = True
                zombies.add(handle)
                self._handle_failure(
                    index, job, attempts, retry_queue,
                    TimeoutError(f"no result within {self.timeout_s}s"),
                    crashed=False, fingerprints=fingerprints,
                    results=results)

    def _handle_failure(self, index: int, job: Job, attempts: dict,
                        retry_queue: list, cause: BaseException,
                        crashed: bool, fingerprints: list,
                        results: list) -> None:
        attempts[index] = attempts.get(index, 0) + 1
        kind = "worker-crash" if crashed else "timeout"
        if attempts[index] <= self.retries:
            self.stats.retries += 1
            self._emit("retry", job=job,
                       detail=f"attempt {attempts[index]}: {cause!r}")
            retry_queue.append((index, job))
            return
        if crashed:
            # Last resort for crashed workers: one inline attempt —
            # if the job's own code is at fault it raises here with a
            # real traceback instead of a BrokenProcessPool.
            self._emit("fallback",
                       detail=f"{job.label}: worker crashed repeatedly;"
                              " final inline attempt")
            started = time.monotonic()
            try:
                payload = execute_job(job)
            except Exception as exc:
                if self.strict:
                    raise
                self._fail(index, job, fingerprints[index], "job-error",
                           exc, attempts=attempts[index] + 1,
                           wall_s=time.monotonic() - started,
                           results=results)
                return
            self._complete(index, job, fingerprints[index], payload,
                           time.monotonic() - started, results)
            return
        if self.strict:
            raise JobExecutionError(job, cause)
        self._fail(index, job, fingerprints[index], kind, cause,
                   attempts=attempts[index],
                   wall_s=(self.timeout_s or 0.0), results=results)

    def _sleep_backoff(self, retry_queue: list, attempts: dict,
                       fingerprints: list, drain: SignalDrain) -> None:
        """Back off before the retry round (exponential, jittered).

        One sleep per round, sized to the largest per-job delay —
        retries re-submit together, but the jitter keys off each job's
        fingerprint so schedules stay deterministic and de-correlated
        across sweeps.
        """
        delay = max(self.backoff.delay_s(fingerprints[index],
                                         attempts.get(index, 1))
                    for index, _ in retry_queue)
        deadline = time.monotonic() + delay
        while not drain.stop_requested:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, 0.1))
        self.stats.backoff_s += delay

    def _make_backend(self, n_pending: int) -> Optional[ExecBackend]:
        """The backend for one retry round (None → run inline)."""
        if self.backend is not None:
            return self.backend
        executor = self._make_executor(n_pending)
        if executor is None:
            return None
        return ProcessPoolBackend(workers=min(self.jobs, n_pending),
                                  executor=executor)

    def _make_executor(self, n_pending: int
                       ) -> Optional[ProcessPoolExecutor]:
        workers = min(self.jobs, n_pending)
        try:
            return ProcessPoolExecutor(max_workers=workers,
                                       initializer=initialize_worker)
        except (ImportError, NotImplementedError, OSError,
                PermissionError, ValueError):
            # No usable multiprocessing primitives on this platform
            # (e.g. sandboxed /dev/shm) — callers still get results.
            return None


def make_runner(jobs: int = 1, cache_dir=None,
                progress: Optional[Callable[[JobEvent], None]] = None,
                *,
                retries: int = 1,
                timeout_s: Optional[float] = None,
                strict: bool = False,
                failure_budget: Optional[float] = None,
                handle_signals: bool = True,
                backend: Optional[ExecBackend] = None) -> ParallelRunner:
    """The experiment drivers' shared runner-construction shorthand.

    Builds a :class:`ParallelRunner` from ``jobs`` and an optional
    ``cache_dir``, which enables the on-disk :class:`ResultStore` —
    the one record of which jobs are done.
    """
    store = ResultStore(cache_dir) if cache_dir else None
    return ParallelRunner(jobs=jobs, store=store, progress=progress,
                          retries=retries, timeout_s=timeout_s,
                          strict=strict, failure_budget=failure_budget,
                          handle_signals=handle_signals,
                          backend=backend)
