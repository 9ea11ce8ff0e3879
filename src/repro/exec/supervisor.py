"""Supervision primitives for sweep execution.

A multi-hour sweep must behave like a production job scheduler, not a
script: one poisoned configuration cannot abort the other thousand
jobs, a slow job cannot stall timeout detection of the jobs behind it,
and a Ctrl-C must drain cleanly instead of losing unpersisted work.
This module holds the pieces the :class:`repro.exec.ParallelRunner`
composes to get there:

* :class:`JobFailure` — the structured, JSON-ready record a failed job
  leaves in the result list instead of tearing the sweep down;
* :class:`BackoffPolicy` — exponential backoff with *deterministic*
  jitter (derived from the job fingerprint, so retry schedules are
  reproducible like everything else in this repository);
* failure-budget accounting (:class:`FailureBudgetExceeded`) — a
  circuit breaker that aborts a sweep early when more than a
  configured fraction of its jobs fail;
* :class:`SignalDrain` — two-stage SIGINT/SIGTERM handling: the first
  signal stops submission and drains in-flight work, the second
  hard-aborts (:class:`SweepInterrupted` reports what finished).
"""

from __future__ import annotations

import hashlib
import signal
import threading
import traceback as traceback_module
from dataclasses import dataclass

#: Failure classification: the job's own code raised, the job exceeded
#: its deadline, or the worker process executing it died.
FAILURE_KINDS = ("job-error", "timeout", "worker-crash")


@dataclass
class JobFailure:
    """One job's terminal failure, captured in-place of its payload.

    Returned by :meth:`ParallelRunner.run` (non-strict mode) in the
    failed job's slot so callers see exactly which configurations
    failed and why, while every other job's payload survives.
    """

    label: str
    fingerprint: str
    #: One of :data:`FAILURE_KINDS`.
    kind: str
    exc_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.label, "fingerprint": self.fingerprint,
            "kind": self.kind, "exc_type": self.exc_type,
            "message": self.message, "traceback": self.traceback,
            "attempts": self.attempts, "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobFailure":
        return cls(**{k: data[k] for k in (
            "label", "fingerprint", "kind", "exc_type", "message")},
            traceback=data.get("traceback", ""),
            attempts=data.get("attempts", 1),
            wall_s=data.get("wall_s", 0.0))

    @classmethod
    def from_exception(cls, label: str, fingerprint: str, kind: str,
                       exc: BaseException, attempts: int = 1,
                       wall_s: float = 0.0) -> "JobFailure":
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        tb = "".join(traceback_module.format_exception(
            type(exc), exc, exc.__traceback__))
        return cls(label=label, fingerprint=fingerprint, kind=kind,
                   exc_type=type(exc).__name__, message=str(exc),
                   traceback=tb, attempts=attempts, wall_s=wall_s)

    def summary(self) -> str:
        return (f"{self.label}: {self.kind} after {self.attempts} "
                f"attempt(s): {self.exc_type}: {self.message}")


def is_failure(payload) -> bool:
    """True when a runner result slot holds a failure, not a payload."""
    return isinstance(payload, JobFailure)


@dataclass
class BackoffPolicy:
    """Exponential backoff with deterministic, fingerprint-keyed jitter.

    ``delay_s(fingerprint, attempt)`` grows as ``base * factor**(n-1)``
    capped at ``max_s``, then scaled by a jitter factor in
    ``[0.5, 1.0)`` derived from SHA-256 of ``fingerprint:attempt`` —
    the same job retries on the same schedule on every machine, but
    distinct jobs de-synchronize instead of thundering back together.
    """

    base_s: float = 0.1
    factor: float = 2.0
    max_s: float = 30.0

    def delay_s(self, fingerprint: str, attempt: int) -> float:
        if attempt < 1:
            raise ValueError("attempt counts from 1")
        raw = min(self.max_s, self.base_s * self.factor ** (attempt - 1))
        digest = hashlib.sha256(
            f"{fingerprint}:{attempt}".encode()).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2 ** 65
        return raw * jitter


class FailureBudgetExceeded(RuntimeError):
    """The sweep's failure-fraction circuit breaker tripped."""

    def __init__(self, failed: int, total: int, budget: float) -> None:
        super().__init__(
            f"failure budget exceeded: {failed}/{total} jobs failed "
            f"(> {100 * budget:.0f}% budget); aborting sweep early")
        self.failed = failed
        self.total = total
        self.budget = budget


class SweepInterrupted(RuntimeError):
    """A signal stopped the sweep after a clean drain.

    Everything that finished before the drain is in the result store;
    re-running the same sweep resumes from there.
    """

    def __init__(self, done: int, total: int) -> None:
        super().__init__(
            f"sweep interrupted: {done}/{total} jobs finished and "
            f"persisted; re-run to resume")
        self.done = done
        self.total = total


class SignalDrain:
    """Two-stage SIGINT/SIGTERM handling around a sweep.

    While active (as a context manager, main thread only), the first
    signal sets :attr:`stop_requested` — the runner stops submitting,
    drains in-flight jobs and persists what finished.  A second signal
    restores the original handlers and raises ``KeyboardInterrupt``
    immediately (hard abort).  Handlers are always restored on exit;
    off the main thread, or for an ignored signal, it is an inert flag.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.stop_requested = False
        self._previous: dict = {}

    def __enter__(self) -> "SignalDrain":
        if (self.enabled and threading.current_thread()
                is threading.main_thread()):
            for sig in self.SIGNALS:
                if signal.getsignal(sig) == signal.SIG_IGN:
                    continue
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _handle(self, signum, frame) -> None:
        if self.stop_requested:
            self._restore()
            raise KeyboardInterrupt
        self.stop_requested = True

    def _restore(self) -> None:
        while self._previous:
            sig, handler = self._previous.popitem()
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
