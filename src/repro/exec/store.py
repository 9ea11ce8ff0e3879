"""Disk-backed, content-addressed store of completed job results.

Each entry is one job's JSON payload, filed under the job's
fingerprint (sharded by the first two hex digits to keep directories
small at paper scale and beyond), which digests its inputs and the
code — a store serves only the code that filled it.  Payloads travel
inside a checksummed envelope::

    {"__repro_envelope__":1,"sha256":"<payload checksum>",
     "payload":{...}}

:func:`seal` / :func:`unseal` are the envelope's one codec — the store
and the fleet's ``results/`` files (:mod:`repro.exec.fleet`) both hold
exactly :func:`seal`'s bytes, so a result is validated by the same
checks, with the same quarantine reasons, wherever it is read.

Writes go through :func:`repro.harness.serialize.write_bytes_atomic`,
so an interrupted run can never leave a truncated entry — and whatever
*did* complete is picked up as cache hits when the sweep is re-run,
making long sweeps resumable.  Entries that fail to parse or whose
checksum does not match are **quarantined** under ``quarantine/``
(with a one-line reason log) instead of silently deleted, so disk
corruption is observable and diagnosable; the affected job simply
re-executes.  ``python -m repro cache verify|gc`` scans, reports and
repairs a store from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..checks import require_real
from ..harness.serialize import canonical_json, write_bytes_atomic

#: Bump when the envelope layout changes incompatibly.
SCHEMA_VERSION = 1

#: Envelope marker key (never a legitimate payload field).
ENVELOPE_KEY = "__repro_envelope__"

#: Quarantine subdirectory (never a shard: shards are two hex chars).
QUARANTINE_DIR = "quarantine"

#: Fingerprints are lowercase hex digests (SHA-256 in practice).
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{8,128}")

#: :meth:`ResultStore.gc` leaves ``*.tmp`` files younger than this
#: alone — a fresh one may be a concurrent sweep's in-flight
#: ``write_bytes_atomic`` temp file, and unlinking it between write and
#: ``os.replace`` would make that sweep's ``put()`` raise.
TMP_GRACE_S = 3600.0


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def seal(payload: dict) -> bytes:
    """``payload`` in its checksummed envelope, as compact JSON bytes."""
    return json.dumps({ENVELOPE_KEY: SCHEMA_VERSION,
                       "sha256": payload_checksum(payload),
                       "payload": payload},
                      separators=(",", ":")).encode()


def unseal(raw: bytes) -> dict:
    """The payload whose :func:`seal` is exactly ``raw``.

    Raises :class:`ValueError` whose message is the quarantine reason.
    """
    try:
        entry = json.loads(raw.decode("utf-8"))
    except ValueError:
        raise ValueError("unparseable JSON") from None
    except RecursionError:
        raise ValueError("nested too deeply") from None
    if not isinstance(entry, dict):
        raise ValueError("not a JSON object")
    schema = entry.get(ENVELOPE_KEY)
    payload = entry.get("payload")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValueError(f"unknown envelope schema {schema!r}")
    if not isinstance(payload, dict):
        raise ValueError("envelope without payload")
    try:
        if seal(payload) != raw:
            raise ValueError(
                "checksum mismatch"
                if entry.get("sha256") != payload_checksum(payload)
                else "not in sealed form")
    except RecursionError:
        raise ValueError("nested too deeply") from None
    return payload


@dataclass
class StoreStats:
    """One scan of a store: what it holds and what it quarantined."""

    entries: int = 0
    bytes: int = 0
    quarantined: int = 0

    def format(self) -> str:
        return (f"{self.entries} entries, {self.bytes} bytes, "
                f"{self.quarantined} quarantined")


class ResultStore:
    """Memoizes job payloads by content fingerprint."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Entries quarantined by this process (fed into
        #: :class:`repro.exec.RunnerStats`).
        self.quarantine_events = 0

    def path_for(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s payload lives (or would live)."""
        if not isinstance(fingerprint, str) \
                or not _FINGERPRINT_RE.fullmatch(fingerprint):
            raise ValueError(
                f"malformed fingerprint {fingerprint!r}: store keys "
                f"must be lowercase hex digests (8-128 chars) — other "
                f"characters (e.g. '/', '\\', '.') could escape the "
                f"sharded cache layout or collide with its metadata "
                f"files")
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[dict]:
        """The cached payload, or ``None`` if absent or invalid.

        Invalid entries (truncated JSON from a kill -9, disk-full
        debris, checksum mismatches, hand-edited files) are moved to
        ``quarantine/`` — preserved for diagnosis, never silently
        deleted — and treated as misses, so the job re-executes.
        """
        path = self.path_for(fingerprint)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            return None
        try:
            return unseal(raw)
        except ValueError as exc:
            self.quarantine(fingerprint, str(exc))
            return None

    def put(self, fingerprint: str, payload: dict) -> None:
        """Persist one completed job's payload (atomic, checksummed).

        Safe under concurrent writers on the same fingerprint (two
        sweeps sharing a cache, or a fleet's duplicate completion):
        each writer stages a private temp file and commits with an
        atomic rename, so the race resolves to last-write-wins and a
        reader can never observe a half-written entry — and since jobs
        are deterministic, the racing writers carry identical payloads
        anyway.  ``fsync`` before the rename keeps a machine crash
        from leaving an empty (→ quarantined) entry behind.
        """
        write_bytes_atomic(self.path_for(fingerprint), seal(payload))

    def discard(self, fingerprint: str) -> None:
        """Drop one entry (missing entries are fine)."""
        try:
            self.path_for(fingerprint).unlink()
        except (FileNotFoundError, OSError):
            pass

    def quarantine(self, fingerprint: str, reason: str) -> None:
        """Move one invalid entry aside (never silently delete it)."""
        path = self.path_for(fingerprint)
        dest = self.quarantine_root / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return
        self.quarantine_events += 1
        try:
            with open(self.quarantine_root / "log.jsonl", "a") as log:
                log.write(json.dumps(
                    {"fingerprint": fingerprint, "reason": reason},
                    separators=(",", ":")) + "\n")
        except OSError:  # pragma: no cover - diagnostics only
            pass

    # ------------------------------------------------------------------
    def _entry_paths(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == QUARANTINE_DIR:
                continue
            # rglob, not glob: count entries even if a future layout
            # (or a hand-moved file) nests them deeper than one shard.
            yield from sorted(shard.rglob("*.json"))

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def stats(self) -> StoreStats:
        """Scan the store: entry count, payload bytes, quarantined."""
        out = StoreStats()
        for path in self._entry_paths():
            out.entries += 1
            try:
                out.bytes += path.stat().st_size
            except OSError:  # pragma: no cover - raced removal
                pass
        if self.quarantine_root.is_dir():
            out.quarantined = sum(
                1 for _ in self.quarantine_root.glob("*.json"))
        return out

    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """Validate every entry; quarantine bad ones, report counts.

        Returns ``{"checked", "ok", "quarantined", "foreign"}``.
        """
        report = {"checked": 0, "ok": 0, "quarantined": 0, "foreign": 0}
        before = self.quarantine_events
        for path in list(self._entry_paths()):
            fingerprint = path.stem
            if not _FINGERPRINT_RE.fullmatch(fingerprint):
                report["foreign"] += 1
                continue
            report["checked"] += 1
            if self.get(fingerprint) is not None:
                report["ok"] += 1
        report["quarantined"] = self.quarantine_events - before
        return report

    def gc(self, tmp_grace_s: Optional[float] = None) -> dict:
        """Reclaim space: purge quarantine, temp debris, empty shards.

        Returns ``{"removed", "bytes"}``.  Valid entries are never
        touched — quarantined files have been reported by ``verify``
        (or at ``get`` time) before they can be collected here.  Temp
        files younger than ``tmp_grace_s`` (default
        :data:`TMP_GRACE_S`) are also left alone: they may belong to a
        sweep that is writing the store concurrently.
        """
        grace = TMP_GRACE_S if tmp_grace_s is None else tmp_grace_s
        require_real("tmp_grace_s", grace)
        if grace < 0:
            raise ValueError(f"tmp_grace_s must be >= 0, got {grace!r}")
        now = time.time()
        removed = 0
        freed = 0
        if self.quarantine_root.is_dir():
            for path in sorted(self.quarantine_root.iterdir()):
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:  # pragma: no cover - raced removal
                    continue
                removed += 1
                freed += size
            try:
                self.quarantine_root.rmdir()
            except OSError:  # pragma: no cover - non-empty
                pass
        if self.root.is_dir():
            for stray in sorted(self.root.rglob("*.tmp")):
                try:
                    info = stray.stat()
                    if now - info.st_mtime < grace:
                        continue  # possibly a live writer's temp file
                    stray.unlink()
                except OSError:  # pragma: no cover - raced removal
                    continue
                removed += 1
                freed += info.st_size
            for shard in sorted(self.root.iterdir()):
                if shard.is_dir() and not any(shard.iterdir()):
                    try:
                        shard.rmdir()
                    except OSError:  # pragma: no cover
                        pass
        return {"removed": removed, "bytes": freed}
