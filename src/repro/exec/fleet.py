"""Fleet execution: a shared on-disk queue, leases, and reclamation.

The driver (a :class:`repro.exec.ParallelRunner` with a
:class:`FleetBackend`) publishes fingerprinted jobs as JSON files in a
directory and spawns its own worker subprocesses that pull jobs from
the queue and push results back.  No sockets, no broker: the
filesystem's atomic primitives (hard link, ``os.replace``) are the
whole coordination protocol, and every worker is the driver's child,
so the driver sees a worker die the moment it polls.  The benchmark's
``sweep_pool`` workload is its one driver; sweeps run on the process
pool.

Layout of a fleet directory::

    fleet/
      queue/<fp>.json     job wire form (driver writes, workers read)
      leases/<fp>.json    claim: worker id + acquired time
      results/<fp>.json   checksummed result envelope (worker writes)
      workers/<id>.log    each worker's stderr
      quarantine/         corrupt results, kept for diagnosis
      STOP                shutdown sentinel (driver writes at the end)

The robustness contract:

* a claim hard-links a whole lease record into place (the directory
  needs hard links), so exactly one worker holds a job; the lease is
  released by its owner, or by the driver once the owner has exited;
* a worker that dies mid-job is noticed at the driver's next poll: the
  driver releases the dead worker's leases, surfaces
  :class:`WorkerLostError`, respawns the worker, and the runner retries
  the job under its existing :class:`~repro.exec.BackoffPolicy` —
  fleet reclamation and pool crash-retry share one policy and one
  stats surface;
* a worker leaves its loop once its parent (the driver) is gone, and a
  new driver clears ``leases/``, so no lease outlives the process tree
  that wrote it;
* results are the same bytes a :class:`~repro.exec.ResultStore` entry
  holds, written and read through the same
  :func:`~repro.exec.store.seal` / :func:`~repro.exec.store.unseal`
  codec; a corrupt file (a torn write) is quarantined and the job
  re-runs;
* duplicate completions (a reclaimed job re-run while a late envelope
  lands) are harmless: jobs are deterministic, so both writers produce
  identical bytes and atomic rename makes last-write-wins safe; one
  landing after its job was collected is swept up when the driver
  shuts its workers down;
* a result left by a dead driver is collected, not re-run, when a new
  driver submits the same job to the same directory.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Union

from ..harness.serialize import write_bytes_atomic, write_json_atomic
from .backend import ExecBackend, job_from_wire, job_to_wire
from .store import seal, unseal
from .worker import execute_job, initialize_worker

QUEUE_DIR = "queue"
LEASE_DIR = "leases"
RESULT_DIR = "results"
WORKERS_DIR = "workers"
QUARANTINE_DIR = "quarantine"
STOP_FILE = "STOP"

#: Runaway backstop: the driver stops respawning dead workers after
#: this many restarts in one backend's life.
MAX_RESTARTS = 1000

#: A worker process: ``run_worker(root, worker_id, poll_s)``.
_WORKER_MAIN = ("import sys; from repro.exec.fleet import run_worker; "
                "sys.exit(run_worker(sys.argv[1], sys.argv[2], "
                "float(sys.argv[3])))")


class WorkerLostError(OSError):
    """The fleet worker executing a job was lost (or its result was).

    An :class:`OSError` subclass on purpose: the runner already treats
    ``OSError`` from a backend as "the worker died, not the job" and
    retries with backoff — a dead lease holder and a corrupt envelope
    both reduce to that same contract.
    """


class RemoteJobError(RuntimeError):
    """A job's own code raised on a fleet worker.

    Carries the remote exception's type/message/traceback as captured
    by the worker; the runner records it as a terminal ``job-error``
    (non-retryable), exactly like an exception from a pool worker.
    """

    def __init__(self, exc_type: str, message: str,
                 traceback: str = "") -> None:
        super().__init__(f"{exc_type}: {message}")
        self.remote_type = exc_type
        self.remote_message = message
        self.remote_traceback = traceback


# ---------------------------------------------------------------------
# Small filesystem helpers (shared by driver and worker sides).

def _read_json(path: Path) -> Optional[dict]:
    """Parse a JSON file, tolerating races and torn writes (→ None)."""
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _unlink_quiet(path: Path) -> None:
    try:
        path.unlink()
    except (FileNotFoundError, OSError):
        pass


def try_claim(root: Union[str, Path], fingerprint: str,
              worker_id: str) -> bool:
    """Atomically claim one job's lease; True when this worker won it.

    The record is written to a temp file and hard-linked onto the lease
    path (``leases/`` must support hard links): exactly one of N racing
    workers wins, and no reader ever sees a lease before its record is
    whole.  An existing lease is never replaced.
    """
    path = Path(root) / LEASE_DIR / f"{fingerprint}.json"
    record = {"worker": worker_id, "fingerprint": fingerprint,
              "acquired": time.time()}
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(record, separators=(",", ":")).encode())
            handle.flush()
            os.fsync(handle.fileno())
        os.link(tmp, path)
    except OSError:  # FileExistsError: another worker holds it
        return False
    finally:
        _unlink_quiet(Path(tmp))
    return True


def release_lease(root: Union[str, Path], fingerprint: str) -> None:
    _unlink_quiet(Path(root) / LEASE_DIR / f"{fingerprint}.json")


# ---------------------------------------------------------------------
# Worker side.

class _TermSignal(Exception):
    """Second SIGTERM: abandon the leased job immediately."""


class FleetWorker:
    """One queue-pulling worker, a child process of its driver.

    SIGTERM is two-stage, mirroring the driver's
    :class:`~repro.exec.SignalDrain`: the first requests a stop (the
    current job finishes, its result persists, the lease is released,
    the loop exits); a second abandons the job mid-flight — the lease
    is released so any other worker can pick the job up at once.  The
    loop also ends when the driver is gone (the parent pid changed).
    """

    def __init__(self, root: Union[str, Path],
                 worker_id: Optional[str] = None,
                 poll_s: float = 0.2,
                 max_jobs: Optional[int] = None,
                 log=None) -> None:
        self.root = Path(root)
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll_s = poll_s
        self.max_jobs = max_jobs
        self.log = log if log is not None else sys.stderr
        self.executed = 0
        self.stop_requested = False
        self._parent = os.getppid()

    # -- signals -------------------------------------------------------
    def _handle_sigterm(self, signum, frame) -> None:
        if self.stop_requested:
            raise _TermSignal
        self.stop_requested = True

    def install_signals(self) -> None:
        initialize_worker(role="fleet")
        try:
            signal.signal(signal.SIGTERM, self._handle_sigterm)
        except (ValueError, OSError):  # pragma: no cover - non-main
            pass

    def _say(self, message: str) -> None:
        print(f"[repro.fleet:{self.worker_id}] {message}",
              file=self.log, flush=True)

    # -- claiming ------------------------------------------------------
    def _claimable(self) -> Iterable[tuple]:
        """(fingerprint, entry path) candidates, deterministic order."""
        queue = self.root / QUEUE_DIR
        if not queue.is_dir():
            return
        for path in sorted(queue.glob("*.json")):
            fp = path.stem
            if not (self.root / RESULT_DIR / f"{fp}.json").exists() \
                    and not (self.root / LEASE_DIR / f"{fp}.json").exists():
                yield fp, path

    # -- execution -----------------------------------------------------
    def _write_result(self, fingerprint: str, payload: dict) -> None:
        write_bytes_atomic(
            self.root / RESULT_DIR / f"{fingerprint}.json",
            seal(payload))

    def _write_failure(self, fingerprint: str,
                       exc: BaseException) -> None:
        import traceback as traceback_module
        tb = "".join(traceback_module.format_exception(
            type(exc), exc, exc.__traceback__))
        entry = {"kind": "failure",
                 "failure": {"exc_type": type(exc).__name__,
                             "message": str(exc), "traceback": tb}}
        write_bytes_atomic(
            self.root / RESULT_DIR / f"{fingerprint}.json",
            json.dumps(entry, separators=(",", ":")).encode())

    def _execute_claimed(self, fingerprint: str,
                         entry_path: Path) -> None:
        entry = _read_json(entry_path)
        if entry is None:  # cancelled/collected under us
            release_lease(self.root, fingerprint)
            return
        try:
            job = job_from_wire(entry)
            # Its result is filed under the queue name: refuse a
            # job that is not the one the name and field promise
            # (as every job queued by a driver running other code).
            if not fingerprint == job.fingerprint() == entry.get(
                    "fingerprint"):
                raise ValueError(
                    f"queue entry {fingerprint} holds job "
                    f"{job.fingerprint()} under this worker's code "
                    f"(fingerprint field "
                    f"{entry.get('fingerprint')!r}); refusing it")
            payload = execute_job(job)
        except _TermSignal:
            raise
        except Exception as exc:
            self._write_failure(fingerprint, exc)
            self.executed += 1  # failed jobs count toward max_jobs
            self._say(f"{entry.get('label', fingerprint[:12])} "
                      f"raised {type(exc).__name__}: {exc}")
        else:
            self._write_result(fingerprint, payload)
            self.executed += 1
            self._say(f"done {entry.get('label', '?')} "
                      f"({self.executed} executed)")
        finally:
            release_lease(self.root, fingerprint)

    # -- main loop -----------------------------------------------------
    def run(self) -> int:
        """Pull and execute jobs until stopped; returns an exit code."""
        self._say(f"joining fleet at {self.root}")
        try:
            while not self.stop_requested:
                if (self.root / STOP_FILE).exists():
                    self._say("stop sentinel seen; exiting")
                    break
                if os.getppid() != self._parent:
                    self._say("driver gone; exiting")
                    break
                if (self.max_jobs is not None
                        and self.executed >= self.max_jobs):
                    break
                claimed = False
                for fp, entry_path in self._claimable():
                    if self.stop_requested:
                        break
                    if not try_claim(self.root, fp, self.worker_id):
                        continue
                    if (self.root / RESULT_DIR / f"{fp}.json").exists():
                        # A peer wrote this result (then released its
                        # lease) between _claimable's result check and
                        # its lease check: leave the envelope for the
                        # driver instead of running the job again.
                        release_lease(self.root, fp)
                        continue
                    claimed = True
                    self._execute_claimed(fp, entry_path)
                    break  # rescan: fresh view of queue and leases
                if not claimed and not self.stop_requested:
                    time.sleep(self.poll_s)
        except _TermSignal:
            self._say("second SIGTERM: abandoning leased job")
            return 1
        self._say(f"exiting after {self.executed} jobs")
        return 0


def run_worker(root: Union[str, Path],
               worker_id: Optional[str] = None,
               poll_s: float = 0.2) -> int:
    """Entry point of each worker process a driver spawns."""
    worker = FleetWorker(root, worker_id=worker_id, poll_s=poll_s)
    worker.install_signals()
    return worker.run()


def spawn_local_workers(root: Union[str, Path], count: int,
                        poll_s: float = 0.2,
                        prefix: str = "local"
                        ) -> Dict[str, subprocess.Popen]:
    """Start ``count`` worker subprocesses against ``root``, by id.

    Workers inherit the environment plus a ``PYTHONPATH`` that
    resolves this very package, so spawning works from tests and
    checkouts alike.  Each worker's stderr lands in
    ``workers/<id>.log`` for post-mortems.
    """
    root = Path(root)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    (root / WORKERS_DIR).mkdir(parents=True, exist_ok=True)
    procs = {}
    for i in range(count):
        worker_id = f"{prefix}-{i}-{os.getpid()}"
        log = open(root / WORKERS_DIR / f"{worker_id}.log", "ab")
        procs[worker_id] = subprocess.Popen(
            [sys.executable, "-c", _WORKER_MAIN, str(root), worker_id,
             str(poll_s)],
            env=env, stdout=log, stderr=subprocess.STDOUT)
        log.close()  # the child holds its own descriptor
    return procs


# ---------------------------------------------------------------------
# Driver side.

class FleetHandle:
    """Driver-side tracking for one in-fleet job."""

    __slots__ = ("fingerprint", "label", "error")

    def __init__(self, fingerprint: str, label: str) -> None:
        self.fingerprint = fingerprint
        self.label = label
        self.error: Optional[BaseException] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FleetHandle({self.label}, {self.fingerprint[:12]})"


class FleetBackend(ExecBackend):
    """Drive a sweep through a shared-directory worker fleet.

    ``local_workers`` > 0 spawns that many worker subprocesses against
    the fleet directory.  Each poll of :meth:`wait` reaps any that
    exited (a crash, an OOM kill): their leases are released, the jobs
    they held fail with :class:`WorkerLostError` for the runner to
    retry, and a replacement is spawned, up to :data:`MAX_RESTARTS`.
    The backend is ``persistent``: one instance spans every retry
    round, accumulating ``lease_reclaims`` / ``worker_restarts``
    counters that the runner folds into its
    :class:`~repro.exec.RunnerStats`.
    """

    name = "fleet"
    persistent = True
    capacity = None  # enqueue everything; workers pace themselves

    def __init__(self, root: Union[str, Path],
                 poll_s: float = 0.1,
                 local_workers: int = 0) -> None:
        self.root = Path(root)
        self.poll_s = poll_s
        self.lease_reclaims = 0
        self.worker_restarts = 0
        self.corrupt_results = 0
        #: Fingerprints whose result was collected (or failed).
        self._settled: Set[str] = set()
        #: Fingerprint -> id of the exited worker whose lease on it was
        #: released; its handle fails at the next poll.
        self._lost: Dict[str, str] = {}
        self._shutdown = False
        for sub in (QUEUE_DIR, LEASE_DIR, RESULT_DIR, WORKERS_DIR):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        # A fresh driver owns the directory: a previous run's leases
        # name workers that are gone, and its stop sentinel would send
        # workers (re)joining home on sight.
        for path in (self.root / LEASE_DIR).iterdir():
            _unlink_quiet(path)
        _unlink_quiet(self.root / STOP_FILE)
        self._workers = (spawn_local_workers(self.root, local_workers)
                         if local_workers else {})

    # -- paths ---------------------------------------------------------
    def _queue_path(self, fp: str) -> Path:
        return self.root / QUEUE_DIR / f"{fp}.json"

    def _lease_path(self, fp: str) -> Path:
        return self.root / LEASE_DIR / f"{fp}.json"

    def _result_path(self, fp: str) -> Path:
        return self.root / RESULT_DIR / f"{fp}.json"

    # -- ExecBackend ---------------------------------------------------
    def submit(self, job) -> FleetHandle:
        wire = job_to_wire(job)
        fp = wire["fingerprint"]
        handle = FleetHandle(fp, wire["label"])
        # A pre-existing result is kept only if it validates — a
        # completed-but-uncollected job from a SIGKILLed driver is
        # picked up for free, which is fleet-scope resume — and is
        # otherwise quarantined and counted like any corrupt result.
        self._lost.pop(fp, None)  # its lease is gone: claimable again
        self._validate(fp)  # a missing result is not a corrupt one
        write_json_atomic(wire, self._queue_path(fp), indent=None)
        return handle

    def wait(self, handles: Set[FleetHandle],
             timeout: float) -> Set[FleetHandle]:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            self._reap_dead()
            done: Set[FleetHandle] = set()
            for handle in handles:
                fp = handle.fingerprint
                lost_to = self._lost.pop(fp, None)
                if self._result_path(fp).exists():
                    done.add(handle)
                elif lost_to is not None and handle.error is None:
                    # Its worker exited holding the lease.  The runner
                    # retries under its BackoffPolicy — one retry
                    # machinery for pool crashes and fleet losses alike.
                    self.lease_reclaims += 1
                    handle.error = WorkerLostError(
                        f"worker {lost_to} exited holding the lease on "
                        f"{handle.label}; job reclaimed")
                if handle.error is not None:
                    done.add(handle)
            remaining = deadline - time.monotonic()
            if done or remaining <= 0:
                return done
            time.sleep(min(self.poll_s, max(0.01, remaining)))

    def result(self, handle: FleetHandle) -> dict:
        if handle.error is not None:
            error = handle.error
            handle.error = None  # a resubmitted handle starts clean
            raise error
        payload = self._validate(handle.fingerprint)
        if payload is None:
            # Corrupt in transit: quarantined by _validate; the queue
            # entry stays so workers re-execute after the runner
            # resubmits.
            raise WorkerLostError(
                f"result for {handle.label} corrupt in transit; "
                f"quarantined and re-queued")
        self._settled.add(handle.fingerprint)
        self._cleanup(handle.fingerprint)
        if isinstance(payload, RemoteJobError):
            raise payload
        return payload

    def cancel(self, handle: FleetHandle) -> bool:
        if handle.error is not None \
                or self._result_path(handle.fingerprint).exists() \
                or self._lease_path(handle.fingerprint).exists():
            return False  # settled, or executing
        _unlink_quiet(self._queue_path(handle.fingerprint))
        return True

    def done(self, handle: FleetHandle) -> bool:
        return (handle.error is not None
                or self._result_path(handle.fingerprint).exists())

    def exec_elapsed(self, handle: FleetHandle,
                     submitted_elapsed: float) -> float:
        """Deadlines measure claim-to-now: queue wait is not execution."""
        lease = _read_json(self._lease_path(handle.fingerprint))
        if lease is None:
            return 0.0
        acquired = lease.get("acquired")
        if not isinstance(acquired, (int, float)):
            return 0.0
        return max(0.0, time.time() - acquired)

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        try:
            (self.root / STOP_FILE).touch()
        except OSError:  # pragma: no cover - unwritable fleet dir
            pass
        procs = list(self._workers.values())
        # With ``wait``, the sentinel gets 2 s first: a worker still
        # starting up has no SIGTERM handler yet and dies of the signal.
        grace = time.monotonic() + (2.0 if wait else 0.0)
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, grace - time.monotonic()))
            except subprocess.TimeoutExpired:
                try:
                    proc.terminate()
                except OSError:  # pragma: no cover
                    pass
        if wait:
            deadline = time.monotonic() + 5.0
            for proc in procs:
                budget = deadline - time.monotonic()
                try:
                    proc.wait(timeout=max(0.1, budget))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            # A duplicate claimer may have finished a job after it was
            # collected; with the local workers gone, nothing else will.
            for fp in self._settled:
                self._cleanup(fp)
            for path in (self.root / LEASE_DIR).glob("*.tmp"):
                _unlink_quiet(path)  # a claimer killed in try_claim
        else:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()

    # -- internals -----------------------------------------------------
    def _validate(self, fp: str):
        """Payload dict, :class:`RemoteJobError`, or None (invalid).

        Invalid results are quarantined and counted — preserved for
        diagnosis under ``quarantine/`` and removed from ``results/``
        so the job re-executes.
        """
        path = self._result_path(fp)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            return None
        try:
            return unseal(raw)
        except ValueError:
            pass  # not a sealed payload: a failure record, or junk
        try:
            entry = json.loads(raw)
        except (ValueError, RecursionError):
            entry = None
        if isinstance(entry, dict) and entry.get("kind") == "failure":
            failure = entry.get("failure") or {}
            return RemoteJobError(
                failure.get("exc_type", "Exception"),
                failure.get("message", "remote job failed"),
                failure.get("traceback", ""))
        dest = self.root / QUARANTINE_DIR / f"{fp}.json"
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            _unlink_quiet(path)
        self.corrupt_results += 1
        return None

    def _cleanup(self, fp: str) -> None:
        _unlink_quiet(self._queue_path(fp))
        _unlink_quiet(self._lease_path(fp))
        _unlink_quiet(self._result_path(fp))

    def _reap_dead(self) -> None:
        """Release exited workers' leases and respawn the workers."""
        if self._shutdown:
            return
        dead = {worker_id for worker_id, proc in self._workers.items()
                if proc.poll() is not None}
        if not dead:
            return
        for path in (self.root / LEASE_DIR).glob("*.json"):
            worker_id = (_read_json(path) or {}).get("worker")
            if worker_id in dead:
                _unlink_quiet(path)
                self._lost[path.stem] = worker_id
        for worker_id in dead:
            del self._workers[worker_id]
            if self.worker_restarts < MAX_RESTARTS:
                self.worker_restarts += 1
                self._workers.update(spawn_local_workers(
                    self.root, 1, prefix=f"respawn{self.worker_restarts}"))
