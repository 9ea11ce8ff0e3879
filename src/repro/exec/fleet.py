"""Fleet execution: a shared on-disk queue, leases, and reclamation.

The driver (a :class:`repro.exec.ParallelRunner` with a
:class:`FleetBackend`) publishes fingerprinted jobs as JSON files in a
directory and spawns local ``python -m repro fleet worker`` processes
that pull jobs from the queue and push results back.  No sockets, no
broker: the filesystem's atomic primitives (hard link,
``os.replace``) are the whole coordination protocol, which is what
lets the fleet survive any worker dying at any instant.  The
benchmark's ``sweep_pool`` workload is its one driver; sweeps run on
the process pool.

Layout of a fleet directory::

    fleet/
      queue/<fp>.json     job wire form (driver writes, workers read)
      leases/<fp>.json    claim + heartbeat (worker renews every ttl/4)
      results/<fp>.json   checksummed result envelope (worker writes)
      workers/<id>.json   worker liveness beacons (takeover counts)
      workers/<id>.log    each local worker's stderr
      quarantine/         corrupt results, kept for diagnosis
      STOP                shutdown sentinel (driver writes at the end)

The robustness contract:

* a claim hard-links a whole lease record into place (the directory
  needs hard links); an existing lease may only be taken over once it
  **expires** (no heartbeat for ``ttl_s``);
* a worker that dies mid-job stops heartbeating; the driver reclaims
  the expired lease, surfaces :class:`WorkerLostError` and the runner
  retries the job under its existing
  :class:`~repro.exec.BackoffPolicy` — fleet reclamation and pool
  crash-retry share one policy and one stats surface;
* results are the same bytes a :class:`~repro.exec.ResultStore` entry
  holds, written and read through the same
  :func:`~repro.exec.store.seal` / :func:`~repro.exec.store.unseal`
  codec; a corrupt file (a torn write) is quarantined and the job
  re-runs;
* duplicate completions (lease takeover racing a stalled-but-alive
  worker) are harmless: jobs are deterministic, so both writers
  produce identical bytes and atomic rename makes last-write-wins
  safe; one landing after its job was collected is swept up when the
  driver shuts its local workers down;
* a result left by a dead driver is collected, not re-run, when a new
  driver submits the same job to the same directory.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Set, Union

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

#: Default lease time-to-live: a worker that misses heartbeats for
#: this long is presumed dead and its job is reclaimed.
DEFAULT_TTL_S = 10.0
#: Heartbeats renew the lease at ttl/4, so one missed beat never costs
#: a lease.
HEARTBEAT_FRACTION = 0.25
#: Runaway backstop: the driver stops respawning dead local workers
#: after this many restarts in one backend's life.
MAX_RESTARTS = 1000


class WorkerLostError(OSError):
    """The fleet worker executing a job was lost (or its result was).

    An :class:`OSError` subclass on purpose: the runner already treats
    ``OSError`` from a backend as "the worker died, not the job" and
    retries with backoff — lease expiry, vanished results and corrupt
    envelopes all reduce to that same contract.
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


def lease_expired(lease: Optional[dict], now: Optional[float] = None,
                  default_ttl_s: float = DEFAULT_TTL_S) -> bool:
    """True when a lease record has gone ``ttl_s`` without renewal."""
    if lease is None:
        return True
    now = time.time() if now is None else now
    renewed = lease.get("renewed", 0.0)
    ttl = lease.get("ttl_s", default_ttl_s)
    if not isinstance(renewed, (int, float)) \
            or not isinstance(ttl, (int, float)):
        return True
    return now - renewed > ttl


#: ``try_claim`` outcomes.  ``CLAIM_TAKEOVER`` means an *expired*
#: lease was replaced — the previous worker stopped heartbeating and
#: this claim is a reclamation, which workers count and surface
#: through their liveness beacon so the driver's ``lease_reclaims``
#: telemetry stays accurate even when a sibling worker wins the
#: takeover race before the driver's poll notices the expiry.
CLAIM_FAILED = 0
CLAIM_FRESH = 1
CLAIM_TAKEOVER = 2


def try_claim(root: Union[str, Path], fingerprint: str, worker_id: str,
              ttl_s: float = DEFAULT_TTL_S) -> int:
    """Atomically claim one job's lease; returns a ``CLAIM_*`` code.

    The fast path writes the record to a temp file and hard-links it
    onto the lease path (``leases/`` must support hard links) — exactly
    one of N racing workers wins, and no peer ever reads a lease before
    its record is whole (an unreadable lease counts as expired).  An existing lease may be taken over only
    when it is expired (its worker stopped heartbeating).  Takeover is an
    atomic replace; if two workers take over the same expired lease in
    the same instant both will run the job, which the fabric tolerates
    by design (deterministic jobs, last-write-wins results).

    The return value is truthy on success: ``CLAIM_FRESH`` for an
    uncontested claim and ``CLAIM_TAKEOVER`` when an expired lease was
    replaced; ``CLAIM_FAILED`` otherwise.
    """
    path = Path(root) / LEASE_DIR / f"{fingerprint}.json"
    now = time.time()
    record = {"worker": worker_id, "fingerprint": fingerprint,
              "acquired": now, "renewed": now, "ttl_s": ttl_s}
    encoded = json.dumps(record, separators=(",", ":")).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    except OSError:
        return CLAIM_FAILED
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.link(tmp, path)
    except FileExistsError:
        if not lease_expired(_read_json(path), now):
            return CLAIM_FAILED
        try:
            write_bytes_atomic(path, encoded)
        except OSError:
            return CLAIM_FAILED
        return CLAIM_TAKEOVER
    except OSError:
        return CLAIM_FAILED
    finally:
        _unlink_quiet(Path(tmp))
    return CLAIM_FRESH


def release_lease(root: Union[str, Path], fingerprint: str) -> None:
    _unlink_quiet(Path(root) / LEASE_DIR / f"{fingerprint}.json")


class _LeaseHeartbeat(threading.Thread):
    """Renews one lease every ``ttl/4`` while its job executes.

    Reads the lease before each renewal: if another worker took it
    over (this worker stalled past the TTL and a peer reclaimed it),
    the thread flags :attr:`lost` and stops renewing — the job keeps
    running and its (identical) result is still written, but the lease
    now belongs to someone else.
    """

    def __init__(self, root: Path, fingerprint: str, worker_id: str,
                 ttl_s: float) -> None:
        super().__init__(daemon=True,
                         name=f"lease-{fingerprint[:8]}")
        self.root = root
        self.fingerprint = fingerprint
        self.worker_id = worker_id
        self.ttl_s = ttl_s
        self.lost = False
        self._halt = threading.Event()

    def run(self) -> None:
        path = self.root / LEASE_DIR / f"{self.fingerprint}.json"
        period = max(0.02, self.ttl_s * HEARTBEAT_FRACTION)
        while not self._halt.wait(period):
            lease = _read_json(path)
            if lease is None or lease.get("worker") != self.worker_id:
                self.lost = True
                return
            lease["renewed"] = time.time()
            try:
                write_bytes_atomic(path, json.dumps(
                    lease, separators=(",", ":")).encode())
            except OSError:  # pragma: no cover - transient fs hiccup
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


# ---------------------------------------------------------------------
# Worker side.

class _TermSignal(Exception):
    """Second SIGTERM: abandon the leased job immediately."""


class FleetWorker:
    """One queue-pulling worker process (``repro fleet worker``).

    SIGTERM is two-stage, mirroring the driver's
    :class:`~repro.exec.SignalDrain`: the first requests a stop (the
    current job finishes, its result persists, the lease is released,
    the loop exits); a second abandons the job mid-flight — the lease
    is released so any other worker can pick the job up immediately
    instead of waiting out the TTL.
    """

    def __init__(self, root: Union[str, Path],
                 worker_id: Optional[str] = None,
                 ttl_s: float = DEFAULT_TTL_S,
                 poll_s: float = 0.2,
                 max_jobs: Optional[int] = None,
                 log=None) -> None:
        self.root = Path(root)
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}")
        self.ttl_s = ttl_s
        self.poll_s = poll_s
        self.max_jobs = max_jobs
        self.log = log if log is not None else sys.stderr
        self.executed = 0
        self.reclaimed = 0
        self.stop_requested = False
        self._beacon_at = 0.0

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

    # -- liveness beacon ----------------------------------------------
    def _beacon(self) -> None:
        now = time.time()
        if now - self._beacon_at < self.ttl_s:
            return
        self._beacon_at = now
        record = {"worker": self.worker_id, "pid": os.getpid(),
                  "renewed": now, "reclaimed": self.reclaimed}
        try:
            write_bytes_atomic(
                self.root / WORKERS_DIR / f"{self.worker_id}.json",
                json.dumps(record, separators=(",", ":")).encode())
        except OSError:  # pragma: no cover - diagnostics only
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
            if (self.root / RESULT_DIR / f"{fp}.json").exists():
                continue
            lease = _read_json(self.root / LEASE_DIR / f"{fp}.json")
            if lease is None or lease_expired(lease):
                yield fp, path

    # -- execution -----------------------------------------------------
    def _release(self, fingerprint: str) -> None:
        """Drop a job's lease unless a peer has taken it over.

        Reads the lease instead of trusting the heartbeat's ``lost``
        flag, which misses a takeover after the last renewal.
        """
        lease = _read_json(self.root / LEASE_DIR / f"{fingerprint}.json")
        if lease is not None and lease.get("worker") == self.worker_id:
            release_lease(self.root, fingerprint)

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
            self._release(fingerprint)
            return
        heartbeat = _LeaseHeartbeat(
            self.root, fingerprint, self.worker_id, self.ttl_s)
        heartbeat.start()
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
            heartbeat.stop()
            self._release(fingerprint)

    # -- main loop -----------------------------------------------------
    def run(self) -> int:
        """Pull and execute jobs until stopped; returns an exit code."""
        self._say(f"joining fleet at {self.root} "
                  f"(ttl {self.ttl_s:g}s)")
        try:
            while not self.stop_requested:
                self._beacon()
                if (self.root / STOP_FILE).exists():
                    self._say("stop sentinel seen; exiting")
                    break
                if (self.max_jobs is not None
                        and self.executed >= self.max_jobs):
                    break
                claimed = False
                for fp, entry_path in self._claimable():
                    if self.stop_requested:
                        break
                    outcome = try_claim(self.root, fp, self.worker_id,
                                        ttl_s=self.ttl_s)
                    if not outcome:
                        continue
                    if (self.root / RESULT_DIR / f"{fp}.json").exists():
                        # A peer wrote this result (then released its
                        # lease) between _claimable's result check and
                        # its lease read: leave the envelope for the
                        # driver instead of running the job again.
                        self._release(fp)
                        continue
                    if outcome == CLAIM_TAKEOVER:
                        # A dead peer's expired lease: count it and
                        # beacon immediately so the driver's
                        # lease_reclaims telemetry sees takeovers it
                        # lost the reclaim race on.
                        self.reclaimed += 1
                        self._beacon_at = 0.0
                        self._beacon()
                        self._say(f"took over expired lease on "
                                  f"{fp[:12]}")
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
               ttl_s: float = DEFAULT_TTL_S, poll_s: float = 0.2) -> int:
    """Entry point behind ``python -m repro fleet worker``."""
    worker = FleetWorker(root, worker_id=worker_id, ttl_s=ttl_s,
                         poll_s=poll_s)
    worker.install_signals()
    return worker.run()


def spawn_local_workers(root: Union[str, Path], count: int,
                        ttl_s: float = DEFAULT_TTL_S,
                        poll_s: float = 0.2,
                        prefix: str = "local") -> list:
    """Start ``count`` worker subprocesses against ``root``.

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
    procs = []
    for i in range(count):
        worker_id = f"{prefix}-{i}-{os.getpid()}"
        log = open(root / WORKERS_DIR / f"{worker_id}.log", "ab")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "worker",
             "--dir", str(root), "--id", worker_id,
             "--ttl", str(ttl_s), "--poll", str(poll_s)],
            env=env, stdout=log, stderr=subprocess.STDOUT))
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
    the fleet directory and respawns any that die (a crash, an OOM
    kill), up to :data:`MAX_RESTARTS`.  The backend is ``persistent``:
    one instance spans every retry round, accumulating
    ``lease_reclaims`` / ``worker_restarts`` counters that the runner
    folds into its :class:`~repro.exec.RunnerStats`.
    """

    name = "fleet"
    persistent = True
    capacity = None  # enqueue everything; workers pace themselves

    def __init__(self, root: Union[str, Path],
                 ttl_s: float = DEFAULT_TTL_S,
                 poll_s: float = 0.1,
                 local_workers: int = 0) -> None:
        self.root = Path(root)
        self.ttl_s = ttl_s
        self.poll_s = poll_s
        self._driver_reclaims = 0
        self.worker_restarts = 0
        self.corrupt_results = 0
        #: Fingerprints whose result was collected (or failed).
        self._settled: Set[str] = set()
        self._shutdown = False
        for sub in (QUEUE_DIR, LEASE_DIR, RESULT_DIR, WORKERS_DIR):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        # Beacons persist across sweeps of the same directory:
        # baseline the takeover counts now so a previous run's
        # reclaims don't inflate this one's count.
        self._beacon_reclaim_base = self._beacon_reclaims()
        # A fresh driver owns the directory: clear a previous run's
        # stop sentinel so workers (re)joining don't exit on sight.
        _unlink_quiet(self.root / STOP_FILE)
        self._procs = (spawn_local_workers(
            self.root, local_workers, ttl_s=ttl_s)
            if local_workers else [])

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
        # Stale state from a dead fleet (or an earlier attempt): an
        # expired lease is cleared now rather than waited out; a
        # pre-existing result is kept only if it validates — a
        # completed-but-uncollected job from a SIGKILLed driver is
        # picked up for free, which is fleet-scope resume — and is
        # otherwise quarantined and counted like any corrupt result.
        lease = _read_json(self._lease_path(fp))
        if lease is not None and lease_expired(lease):
            _unlink_quiet(self._lease_path(fp))
        self._validate(fp)  # a missing result is not a corrupt one
        write_json_atomic(wire, self._queue_path(fp), indent=None)
        return handle

    def wait(self, handles: Set[FleetHandle],
             timeout: float) -> Set[FleetHandle]:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            done: Set[FleetHandle] = set()
            now = time.time()
            for handle in handles:
                if handle.error is not None \
                        or self._result_path(handle.fingerprint).exists():
                    done.add(handle)
                    continue
                lease = _read_json(self._lease_path(handle.fingerprint))
                if lease is not None and lease_expired(lease, now):
                    # The worker stopped heartbeating: reclaim.  The
                    # runner retries under its BackoffPolicy — one
                    # retry machinery for pool crashes and fleet
                    # losses alike.
                    _unlink_quiet(self._lease_path(handle.fingerprint))
                    self._driver_reclaims += 1
                    handle.error = WorkerLostError(
                        f"lease on {handle.label} expired (worker "
                        f"{lease.get('worker', '?')} stopped "
                        f"heartbeating); job reclaimed")
                    done.add(handle)
            self._respawn_dead()
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
                or self._result_path(handle.fingerprint).exists():
            return False
        lease = _read_json(self._lease_path(handle.fingerprint))
        if lease is not None and not lease_expired(lease):
            return False  # genuinely executing somewhere
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
        # With ``wait``, the sentinel gets 2 s first: a worker still
        # starting up has no SIGTERM handler yet and dies of the signal.
        grace = time.monotonic() + (2.0 if wait else 0.0)
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.0, grace - time.monotonic()))
            except subprocess.TimeoutExpired:
                try:
                    proc.terminate()
                except OSError:  # pragma: no cover
                    pass
        if wait:
            deadline = time.monotonic() + max(5.0, 2 * self.ttl_s)
            for proc in self._procs:
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
            for proc in self._procs:
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

    def _respawn_dead(self) -> None:
        if self._shutdown:
            return
        for i, proc in enumerate(self._procs):
            if proc.poll() is None:
                continue
            if self.worker_restarts >= MAX_RESTARTS:
                return  # runaway backstop; external workers may remain
            self.worker_restarts += 1
            replacement = spawn_local_workers(
                self.root, 1, ttl_s=self.ttl_s,
                prefix=f"respawn{self.worker_restarts}")
            self._procs[i] = replacement[0]

    @property
    def lease_reclaims(self) -> int:
        """Expired leases reclaimed, by whoever got there first.

        The driver reclaims a lease only when *its* poll notices the
        expired heartbeat; a sibling worker often takes the lease over
        first, which the driver would otherwise never see.  Workers
        count those takeovers (:data:`CLAIM_TAKEOVER`) and publish
        them through their liveness beacons; both sources are summed
        here.  The paths are mutually exclusive in the common case —
        whichever side replaces/unlinks the lease first wins — so the
        sum counts each leaked lease once.
        """
        return self._driver_reclaims + max(
            0, self._beacon_reclaims() - self._beacon_reclaim_base)

    def _beacon_reclaims(self) -> int:
        beacons = self.root / WORKERS_DIR
        if not beacons.is_dir():
            return 0
        total = 0
        for path in beacons.glob("*.json"):
            record = _read_json(path)
            if record is not None:
                try:
                    total += int(record.get("reclaimed", 0))
                except (TypeError, ValueError):
                    pass
            # Dead workers' beacons keep their final counts, so the
            # sum survives kills and respawns (respawned workers get
            # fresh ids, hence fresh beacon files).
        return total
