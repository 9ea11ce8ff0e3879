"""Seeded, deterministic fault injection for the sweep fabric itself.

:mod:`repro.faults` perturbs the *simulated* network; this module
perturbs the *evaluation infrastructure* — the fleet of workers, the
shared queue, the result files in transit — so every robustness claim
the fleet makes (lease reclamation, retry-on-crash, checksum-guarded
results, duplicate-claim tolerance) is provable by test instead of
asserted in prose.

A :class:`ChaosSpec` travels with the fleet directory (``chaos.json``,
written by the driver, read by every worker).  Faults:

* ``kill``  — the worker SIGKILLs itself after claiming a job and
  before writing its result: a mid-job crash whose lease must expire
  and be reclaimed;
* ``stall`` — the worker stops renewing its heartbeat for ``stall_s``
  mid-job: the driver must reclaim the lease, and the eventual
  duplicate completion must be harmless;
* ``claim_delay`` — the worker holds its lease idle for
  ``claim_delay_s`` before executing, *with* heartbeats: lease renewal
  must keep the driver from reclaiming a slow-but-alive worker;
* ``duplicate_claim`` — the worker claims a job whose lease is live,
  racing the legitimate owner to completion: both write the (identical,
  deterministic) result and last-write-wins must hold;
* ``corrupt`` — the worker truncates/garbles the result envelope it
  writes: the driver's checksum validation must quarantine it and
  re-run the job.

Every decision is a pure function of ``(seed, fault kind, job
fingerprint)``, so a chaos run is as replayable as the simulations it
carries.  Each fault additionally fires **at most once per job
fingerprint fleet-wide** (an O_EXCL marker under ``chaos-events/``
arbitrates between workers), which guarantees convergence: the retry
that follows an injected fault runs fault-free, and the sweep's final
matrix is byte-identical to a chaos-free run of the same seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union

from ..checks import require_int, require_real

#: Subdirectory of the fleet root holding once-per-fingerprint markers.
EVENTS_DIR = "chaos-events"
#: The spec's filename inside a fleet directory.
CHAOS_FILE = "chaos.json"

#: Fault kinds and the spec field holding each one's probability.
FAULT_PROBS = {
    "kill": "kill_prob",
    "stall": "stall_prob",
    "claim_delay": "claim_delay_prob",
    "duplicate_claim": "duplicate_claim_prob",
    "corrupt": "corrupt_prob",
}


@dataclass
class ChaosSpec:
    """Deterministic fault plan for one fleet run."""

    seed: int = 0
    #: P(SIGKILL self after claim, before result), per fingerprint.
    kill_prob: float = 0.0
    #: P(heartbeat stall of ``stall_s`` mid-job), per fingerprint.
    stall_prob: float = 0.0
    stall_s: float = 0.0
    #: P(hold the lease idle for ``claim_delay_s`` before executing).
    claim_delay_prob: float = 0.0
    claim_delay_s: float = 0.0
    #: P(claim over a live lease → duplicate execution).
    duplicate_claim_prob: float = 0.0
    #: P(corrupt the result envelope in transit), per fingerprint.
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        """Validate every field; a bad one raises a ``ValueError`` that
        names it (a NaN, bool or string never reaches a roll or a
        sleep)."""
        require_int("seed", self.seed)
        for attr in FAULT_PROBS.values():
            p = getattr(self, attr)
            require_real(attr, p)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{attr} must be a probability, "
                                 f"got {p!r}")
        for attr in ("stall_s", "claim_delay_s"):
            duration = getattr(self, attr)
            require_real(attr, duration)
            if duration < 0:
                raise ValueError(f"fault durations must be >= 0, got "
                                 f"{attr}={duration!r}")

    @property
    def active(self) -> bool:
        return any(getattr(self, attr) > 0
                   for attr in FAULT_PROBS.values())

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a chaos spec must be a JSON object of "
                             f"fault fields, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown chaos fields: {sorted(unknown, key=str)}")
        return cls(**data)

    def save(self, path: Union[str, Path]) -> None:
        from ..harness.serialize import write_json_atomic
        write_json_atomic(self.to_dict(), path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> Optional["ChaosSpec"]:
        """The spec at ``path``, or None when there is no such file.

        Anything else that is not a valid spec raises a ``ValueError``
        naming the path and the field, so a worker never runs
        fault-free because its plan did not parse.
        """
        try:
            text = Path(path).read_bytes()
        except FileNotFoundError:
            return None
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as exc:  # also JSON and Unicode decode errors
            raise ValueError(f"chaos spec {path}: {exc}") from None

    # ------------------------------------------------------------------
    def roll(self, kind: str, fingerprint: str) -> bool:
        """Pure decision: does ``kind`` hit this fingerprint?

        Derived from SHA-256 of ``seed:kind:fingerprint`` — the same
        spec makes the same calls on every worker, every host, every
        rerun.
        """
        prob = getattr(self, FAULT_PROBS[kind])
        if prob <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{fingerprint}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64 < prob

    def fire(self, root: Union[str, Path], kind: str,
             fingerprint: str) -> bool:
        """Roll, then claim the once-per-fingerprint fleet-wide slot.

        True means *this caller* must inject the fault now.  The
        O_EXCL marker under ``chaos-events/`` guarantees each
        (kind, fingerprint) fault fires exactly once across all
        workers and retries — which is what makes chaos runs converge
        to the chaos-free result.
        """
        if not self.roll(kind, fingerprint):
            return False
        marker = (Path(root) / EVENTS_DIR
                  / f"{kind}.{fingerprint[:16]}")
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:  # pragma: no cover - unwritable fleet dir
            return False
        os.close(fd)
        return True


def chaos_events(root: Union[str, Path]) -> dict:
    """Count fired faults by kind (for tests and telemetry)."""
    counts: dict = {kind: 0 for kind in FAULT_PROBS}
    events = Path(root) / EVENTS_DIR
    if not events.is_dir():
        return counts
    for marker in events.iterdir():
        kind = marker.name.split(".", 1)[0]
        if kind in counts:
            counts[kind] += 1
    return counts


def corrupt_bytes(encoded: bytes, seed: int, fingerprint: str) -> bytes:
    """Deterministically damage a result envelope "in transit".

    Alternates (by fingerprint digest) between truncation — the
    classic torn write — and flipping bytes in place, so both the
    JSON-parse and the checksum arms of the driver's validation get
    exercised.
    """
    digest = hashlib.sha256(
        f"{seed}:corrupt-mode:{fingerprint}".encode()).digest()
    if digest[0] % 2 == 0:
        return encoded[:max(1, len(encoded) // 2)]
    cut = max(1, digest[1] % max(1, len(encoded)))
    return encoded[:cut] + bytes([digest[2]]) + encoded[cut + 1:]
