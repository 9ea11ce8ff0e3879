"""Interrupt-safety end to end: SIGINT a real sweep subprocess.

Satellite regression for the supervised runner: a ``python -m repro
sweep`` process killed mid-run with SIGINT must leave a valid store
behind — the only record of what finished — and re-running the same
command must recompute *only* the unfinished jobs and converge to
payloads byte-identical to an uninterrupted run.

These tests drive the actual CLI in a subprocess (signal handling is
process-global state and cannot be faithfully tested in-process).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import ResultStore

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal delivery required")


def sweep_cmd(cache_dir, extra=()):
    # 1 scheme x 2 busy x 2 idle = 4 jobs, inline (--jobs 1) so the
    # test exercises drain without process-pool startup variance
    return [sys.executable, "-m", "repro", "sweep",
            "--schemes", "bbr", "--busy", "2", "--idle", "2",
            "--duration", "2", "--jobs", "1",
            "--cache-dir", str(cache_dir), *extra]


def sweep_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def store_entries(cache_dir):
    return sorted(p for p in Path(cache_dir).glob("??/*.json"))


def interrupt_sweep(cache_dir):
    """Start a sweep, SIGINT it after the first payload persists."""
    proc = subprocess.Popen(
        sweep_cmd(cache_dir), env=sweep_env(), cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 240
    while (time.monotonic() < deadline and proc.poll() is None
           and len(store_entries(cache_dir)) < 1):
        time.sleep(0.02)
    if proc.poll() is not None:
        pytest.skip("sweep completed before SIGINT could land")
    proc.send_signal(signal.SIGINT)
    _, stderr = proc.communicate(timeout=240)
    return proc.returncode, stderr


def test_sigint_drains_then_resumes_byte_identically(tmp_path):
    cache = tmp_path / "cache"
    returncode, stderr = interrupt_sweep(cache)
    assert returncode == 130, stderr
    assert "interrupted" in stderr

    # the store is the one record of what finished: every entry in it
    # validates, and nothing else was left beside the shards
    persisted = store_entries(cache)
    done = {p.stem for p in persisted}
    assert 1 <= len(done) < 4
    report = ResultStore(cache).verify()
    assert report["ok"] == len(done) and report["quarantined"] == 0
    assert [p for p in cache.iterdir() if not p.is_dir()] == []
    snapshot = {p.stem: p.read_bytes() for p in persisted}

    # re-running is the resume: finished jobs are cache hits (zero
    # re-execution), only the remainder executes
    resumed = subprocess.run(
        sweep_cmd(cache, extra=("--save",
                                str(tmp_path / "resumed.json"))),
        env=sweep_env(), cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=240)
    assert resumed.returncode == 0, resumed.stderr
    events = [line for line in resumed.stderr.splitlines()
              if "[repro.exec]" in line]
    assert sum(" executed " in line for line in events) == 4 - len(done)
    assert sum(" cached " in line for line in events) == len(done)
    for fingerprint, blob in snapshot.items():
        path = cache / fingerprint[:2] / f"{fingerprint}.json"
        assert path.read_bytes() == blob, "resume rewrote a finished entry"

    # equivalence: resumed output == uninterrupted run, byte for byte
    fresh = subprocess.run(
        sweep_cmd(tmp_path / "fresh-cache",
                  extra=("--save", str(tmp_path / "fresh.json"))),
        env=sweep_env(), cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=240)
    assert fresh.returncode == 0, fresh.stderr
    assert ((tmp_path / "resumed.json").read_bytes()
            == (tmp_path / "fresh.json").read_bytes())
