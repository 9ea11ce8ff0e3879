"""JSON-serializable views of experiment results.

Turns the harness's result objects into plain dictionaries so runs can
be archived, diffed and post-processed outside the simulator (the
paper's artifact releases raw per-run logs the same way).  Cache keys
(:func:`fingerprint_of`) and snapshot headers carry :func:`code_id`,
and every persisted file is written by :func:`write_bytes_atomic`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from .metrics import FlowSummary
from .runner import FlowResult

@functools.lru_cache(maxsize=None)
def code_id() -> str:
    """SHA-256 over the package's own ``*.py`` files (relative path and
    bytes, in path order): any edit, a comment included, yields a new
    id.  Computed once per process, on first use."""
    root = Path(__file__).resolve().parent.parent
    hasher = hashlib.sha256()
    files = sorted((path.relative_to(root).as_posix(), path)
                   for path in root.rglob("*.py"))
    for name, path in files:
        data = path.read_bytes()
        hasher.update(f"{name}\0{len(data)}\0".encode())
        hasher.update(data)
    return hasher.hexdigest()


def canonical_json(payload) -> str:
    """Key-sorted, whitespace-free JSON — byte-stable across runs."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_of(spec: dict) -> str:
    """A job's key: SHA-256 over its ``to_dict()`` (``spec``) and
    :func:`code_id`, so it names the simulation and the code."""
    encoded = canonical_json({"code": code_id(), "spec": spec})
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def summary_to_dict(summary: FlowSummary) -> dict:
    """Flatten a :class:`FlowSummary` into JSON-ready primitives."""
    return {
        "scheme": summary.scheme,
        "average_throughput_bps": summary.average_throughput_bps,
        "average_throughput_mbps": summary.average_throughput_mbps,
        "throughput_percentiles_bps": {
            str(p): v
            for p, v in summary.throughput_percentiles_bps.items()},
        "average_delay_ms": summary.average_delay_ms,
        "median_delay_ms": summary.median_delay_ms,
        "p95_delay_ms": summary.p95_delay_ms,
        "delay_percentiles_ms": {
            str(p): v for p, v in summary.delay_percentiles_ms.items()},
        "packets": summary.packets,
    }


def summary_from_dict(data: dict) -> FlowSummary:
    """Rebuild a :class:`FlowSummary` from :func:`summary_to_dict` output.

    Accepts both freshly-built dictionaries (integer percentile keys)
    and JSON round-tripped ones (string keys).
    """
    return FlowSummary(
        scheme=data["scheme"],
        average_throughput_bps=data["average_throughput_bps"],
        throughput_percentiles_bps={
            int(p): v
            for p, v in data["throughput_percentiles_bps"].items()},
        average_delay_ms=data["average_delay_ms"],
        median_delay_ms=data["median_delay_ms"],
        p95_delay_ms=data["p95_delay_ms"],
        delay_percentiles_ms={
            int(p): v for p, v in data["delay_percentiles_ms"].items()},
        packets=data["packets"])


def result_to_dict(result: FlowResult,
                   include_samples: bool = False) -> dict:
    """Flatten a :class:`FlowResult`.

    ``include_samples=True`` additionally embeds the raw per-packet
    arrival/delay series (large!).
    """
    out = {
        "scheme": result.spec.scheme,
        "rnti": result.spec.rnti,
        "summary": summary_to_dict(result.summary),
        "sent_packets": result.sent_packets,
        "lost_packets": result.lost_packets,
        "ca_activations": result.ca_activations,
        "state_fractions": result.state_fractions,
        "sender_states": result.sender_states,
        "fault_stats": result.fault_stats,
    }
    if include_samples:
        out["samples"] = {
            "arrival_us": list(result.stats.arrival_us),
            "delay_us": list(result.stats.delay_us),
            "size_bits": list(result.stats.size_bits),
        }
    return out


def write_bytes_atomic(path: Union[str, Path], data: bytes,
                       fsync: bool = True) -> None:
    """Write ``data`` to ``path``, atomically.

    Missing parent directories are created, and the bytes land in a
    temporary file that is :func:`os.replace`'d over ``path`` only once
    fully written — a crash mid-write can never leave a truncated file
    behind, and concurrent writers racing on the same path resolve to
    last-write-wins with each version complete (the rename is the
    commit point; readers only ever see a whole file).  ``fsync=True``
    flushes the data to disk before the rename — and the parent
    directory after it, so the rename itself is durable: a machine
    crash immediately after the call can surface neither an empty file
    nor a vanished one under ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def write_json_atomic(payload, path: Union[str, Path],
                      indent: Optional[int] = 2,
                      fsync: bool = False) -> None:
    """Write ``payload`` as JSON through :func:`write_bytes_atomic`."""
    write_bytes_atomic(path, json.dumps(payload, indent=indent).encode(),
                       fsync=fsync)


def save_results(results: list, path: Union[str, Path],
                 include_samples: bool = False) -> None:
    """Write a list of :class:`FlowResult` to a JSON file (atomically,
    with the file and its directory entry both flushed to disk)."""
    payload = [result_to_dict(r, include_samples) for r in results]
    write_json_atomic(payload, path, fsync=True)


def load_results(path: Union[str, Path]) -> list:
    """Read back what :func:`save_results` wrote (as dictionaries)."""
    return json.loads(Path(path).read_text())
