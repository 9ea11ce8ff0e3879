#!/usr/bin/env python3
"""Interrupted-sweep smoke test: SIGINT a sweep, then re-run it.

Spawns ``python -m repro sweep`` with a result cache, delivers SIGINT
once at least one payload has persisted, and checks the contract the
supervision layer promises:

* the interrupted process exits 130 after a clean drain;
* the result store — the only record of what finished — verifies
  with nothing quarantined, and nothing else sits beside its shards;
* re-running the same command executes exactly the jobs the store does
  not hold (finished fingerprints are cache hits) and its final
  payloads are byte-identical to an uninterrupted run of the sweep.

CI runs this (CI-sized) on every push; run it locally with no
arguments, or ``--duration/--jobs`` to scale it up.
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec import ResultStore  # noqa: E402

#: 2 schemes x (2 busy + 2 idle) locations.
TOTAL_JOBS = 8


def sweep_cmd(cache_dir: str, args, extra=()) -> list:
    return [sys.executable, "-m", "repro", "sweep",
            "--schemes", "pbe,bbr", "--busy", "2", "--idle", "2",
            "--duration", str(args.duration), "--jobs", str(args.jobs),
            "--cache-dir", cache_dir, *extra]


def env() -> dict:
    out = dict(os.environ)
    src = str(REPO_ROOT / "src")
    out["PYTHONPATH"] = (src + os.pathsep + out["PYTHONPATH"]
                         if out.get("PYTHONPATH") else src)
    return out


def store_entries(cache_dir: Path) -> list:
    return sorted(p for p in cache_dir.glob("??/*.json"))


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="SIGINT a sweep mid-run, then re-run it")
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall smoke deadline in seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        cache = Path(workdir) / "cache"

        # --- interrupted run -----------------------------------------
        proc = subprocess.Popen(
            sweep_cmd(str(cache), args), env=env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        deadline = time.time() + args.timeout / 2
        while (time.time() < deadline and proc.poll() is None
               and len(store_entries(cache)) < 1):
            time.sleep(0.05)
        if proc.poll() is not None:
            fail("sweep finished before SIGINT could be delivered; "
                 "increase --duration")
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=args.timeout / 2)
        if proc.returncode != 130:
            fail(f"interrupted sweep exited {proc.returncode}, "
                 f"expected 130\n{stderr}")

        persisted = store_entries(cache)
        report = ResultStore(cache).verify()
        if report["quarantined"] or report["ok"] != len(persisted):
            fail(f"store does not verify after interrupt: {report}")
        stray = [p.name for p in cache.iterdir() if not p.is_dir()]
        if stray:
            fail(f"files beside the store's shards: {stray}")
        stored = len(persisted)
        snapshot = {p.stem: p.read_bytes() for p in persisted}
        print(f"interrupt ok: exit 130, {stored} jobs drained+stored, "
              f"0 quarantined", flush=True)

        # --- the same command again: the re-run is the resume ----------
        resumed = subprocess.run(
            sweep_cmd(str(cache), args,
                      extra=("--save",
                             str(Path(workdir) / "resumed.json"))),
            env=env(), cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=args.timeout)
        if resumed.returncode != 0:
            fail(f"re-run exited {resumed.returncode}\n"
                 f"{resumed.stderr}")
        executed = sum(" executed " in line
                       for line in resumed.stderr.splitlines())
        cached = sum(" cached " in line and "[repro.exec]" in line
                     for line in resumed.stderr.splitlines())
        if executed != TOTAL_JOBS - stored or cached != stored:
            fail(f"re-run recomputed finished work: {executed} "
                 f"executed / {cached} cached with {stored} stored")
        for fp, blob in snapshot.items():
            path = cache / fp[:2] / f"{fp}.json"
            if path.read_bytes() != blob:
                fail(f"re-run rewrote finished entry {fp}")
        print(f"re-run ok: {executed} executed, {cached} cached, "
              f"finished entries untouched", flush=True)

        # --- equivalence with an uninterrupted run -------------------
        fresh = subprocess.run(
            sweep_cmd(str(Path(workdir) / "fresh-cache"), args,
                      extra=("--save",
                             str(Path(workdir) / "fresh.json"))),
            env=env(), cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=args.timeout)
        if fresh.returncode != 0:
            fail(f"fresh sweep exited {fresh.returncode}\n"
                 f"{fresh.stderr}")
        resumed_bytes = (Path(workdir) / "resumed.json").read_bytes()
        fresh_bytes = (Path(workdir) / "fresh.json").read_bytes()
        if resumed_bytes != fresh_bytes:
            fail("re-run sweep is not byte-identical to an "
                 "uninterrupted run")
        print("equivalence ok: re-run == uninterrupted "
              "(byte-identical)", flush=True)

    print("sigint smoke PASSED", flush=True)


if __name__ == "__main__":
    main()
