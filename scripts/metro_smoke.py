#!/usr/bin/env python3
"""Metro matrix smoke test: determinism, SIGINT drain, re-run.

Checks the ``python -m repro metro`` acceptance contract end to end:

* two fresh runs of the same set/seed write byte-identical matrix
  files;
* a run interrupted with SIGINT mid-sweep exits 130 and the result
  store it leaves — the only record of what finished — verifies with
  nothing quarantined;
* re-running the same command executes exactly the shards the store
  does not hold and its matrix is byte-identical to the uninterrupted
  one.

CI runs this on every push; run it locally with no arguments, or
``--hour-s/--jobs`` to scale the interrupted phase.
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


def metro_cmd(out: str, args, extra=()) -> list:
    return [sys.executable, "-m", "repro", "metro", "--set", "smoke",
            "--hour-s", str(args.hour_s), "--jobs", str(args.jobs),
            "--out", out, *extra]


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


def count_events(stderr: str, kind: str) -> int:
    """Runner progress lines of one kind ("executed" / "cached")."""
    return sum(f" {kind} " in line and "[repro.exec]" in line
               for line in stderr.splitlines())


def run_metro(out: str, args, extra=(), timeout=None):
    return subprocess.run(
        metro_cmd(out, args, extra), env=env(), cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=timeout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="metro determinism + SIGINT/re-run smoke")
    parser.add_argument("--hour-s", type=float, default=1.5,
                        help="simulated seconds per diurnal hour "
                             "(stretches the run so SIGINT lands "
                             "mid-sweep)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall smoke deadline in seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)

        # --- determinism: two fresh runs, byte-identical matrices ----
        for name in ("a.json", "b.json"):
            proc = run_metro(str(work / name), args,
                             timeout=args.timeout / 3)
            if proc.returncode != 0:
                fail(f"fresh metro run exited {proc.returncode}\n"
                     f"{proc.stderr}")
        total = count_events(proc.stderr, "executed")
        if (work / "a.json").read_bytes() != (work / "b.json").read_bytes():
            fail("two fresh runs with the same seed wrote different "
                 "matrices")
        print("determinism ok: fresh runs byte-identical", flush=True)

        # --- interrupted run -----------------------------------------
        cache = work / "cache"
        proc = subprocess.Popen(
            metro_cmd(str(work / "interrupted.json"), args,
                      extra=("--cache-dir", str(cache))),
            env=env(), cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        deadline = time.time() + args.timeout / 3
        while (time.time() < deadline and proc.poll() is None
               and len(store_entries(cache)) < 1):
            time.sleep(0.05)
        if proc.poll() is not None:
            fail("metro run finished before SIGINT could be "
                 "delivered; increase --hour-s")
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=args.timeout / 3)
        if proc.returncode != 130:
            fail(f"interrupted metro run exited {proc.returncode}, "
                 f"expected 130\n{stderr}")
        report = ResultStore(cache).verify()
        stored = report["ok"]
        if report["quarantined"] or stored != len(store_entries(cache)):
            fail(f"store does not verify after interrupt: {report}")
        print(f"interrupt ok: exit 130, {stored} of {total} shards "
              f"drained+stored, 0 quarantined", flush=True)

        # --- the same command again: the re-run is the resume ----------
        resumed = run_metro(str(work / "resumed.json"), args,
                            extra=("--cache-dir", str(cache)),
                            timeout=args.timeout / 3)
        if resumed.returncode != 0:
            fail(f"re-run exited {resumed.returncode}\n"
                 f"{resumed.stderr}")
        executed = count_events(resumed.stderr, "executed")
        cached = count_events(resumed.stderr, "cached")
        if executed != total - stored or cached != stored:
            fail(f"re-run recomputed finished shards: {executed} "
                 f"executed / {cached} cached with {stored} of "
                 f"{total} stored")
        if ((work / "resumed.json").read_bytes()
                != (work / "a.json").read_bytes()):
            fail("re-run matrix is not byte-identical to an "
                 "uninterrupted run")
        print(f"re-run ok: {executed} executed, {cached} from the "
              f"store, matrix byte-identical to uninterrupted run",
              flush=True)

    print("metro smoke PASSED", flush=True)


if __name__ == "__main__":
    main()
