#!/usr/bin/env python3
"""Fleet smoke test: chaos-laden fleet sweep, SIGINT, re-run, verify.

Spawns ``python -m repro sweep --fleet-dir`` — two local workers
pulling from a shared queue directory under a seeded
:class:`ChaosSpec` (written to a file, passed as ``--chaos FILE``)
that SIGKILLs every worker once per job — and checks the fabric's
promises end to end:

* the chaos run completes with exit 0, reports reclaimed leases and
  respawned workers, and both its saved entries and its result-store
  entries are byte-identical to a plain ``repro sweep --jobs 2`` of
  the same jobs on a process pool;
* a second fleet run is SIGINTed mid-sweep: the driver drains, exits
  130, and the result store it leaves — the only record of what
  finished — verifies with nothing quarantined;
* re-running the same command on the same fleet+cache executes exactly
  the jobs the store does not hold and saves entries byte-identical
  to the pool run's.

CI runs this (CI-sized) on every push; run it locally with no
arguments, or ``--duration`` to scale it up.
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

from repro.exec import ChaosSpec, ResultStore  # noqa: E402

SWEEP = ("--schemes", "pbe,bbr", "--busy", "2", "--idle", "1")
#: The fault plan: SIGKILL once per job after its claim.
KILL = ChaosSpec(seed=3, kill_prob=1.0)


def fleet_cmd(fleet_dir: str, cache_dir: str, args, chaos: Path,
              extra=()) -> list:
    return [sys.executable, "-m", "repro", "sweep",
            "--fleet-dir", fleet_dir, "--fleet-workers", "2",
            "--fleet-ttl", "3", *SWEEP, "--duration", str(args.duration),
            "--retries", "3", "--cache-dir", cache_dir,
            "--chaos", str(chaos), *extra]


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
        description="fleet + chaos + SIGINT + re-run smoke test")
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall smoke deadline in seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        kill = work / "kill.json"
        KILL.save(kill)

        # --- chaos run vs. pool baseline (byte-identity) -------------
        pool = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *SWEEP,
             "--duration", str(args.duration), "--jobs", "2",
             "--cache-dir", str(work / "cache-pool"),
             "--save", str(work / "pool.json")],
            env=env(), cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=args.timeout)
        if pool.returncode != 0:
            fail(f"pool baseline exited {pool.returncode}\n"
                 f"{pool.stderr}")

        chaos = subprocess.run(
            fleet_cmd(str(work / "fleet-a"), str(work / "cache-a"),
                      args, kill,
                      extra=("--save", str(work / "chaos.json"))),
            env=env(), cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=args.timeout)
        if chaos.returncode != 0:
            fail(f"chaos fleet sweep exited {chaos.returncode}\n"
                 f"{chaos.stderr}")
        if "leases reclaimed" not in chaos.stderr:
            fail(f"chaos run reclaimed no leases — kill fault did not "
                 f"fire?\n{chaos.stderr}")
        if ((work / "chaos.json").read_bytes()
                != (work / "pool.json").read_bytes()):
            fail("chaos fleet entries differ from pool baseline")
        pool_store = {p.name: p.read_bytes()
                      for p in store_entries(work / "cache-pool")}
        if pool_store != {p.name: p.read_bytes()
                          for p in store_entries(work / "cache-a")}:
            fail("chaos fleet store entries differ from pool baseline")
        print("chaos ok: kill-per-job fleet sweep byte-identical to "
              "pool run, leases reclaimed", flush=True)

        # --- interrupted fleet run -----------------------------------
        fleet_b = str(work / "fleet-b")
        cache_b = work / "cache-b"
        proc = subprocess.Popen(
            fleet_cmd(fleet_b, str(cache_b), args, kill),
            env=env(), cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        deadline = time.time() + args.timeout / 2
        while (time.time() < deadline and proc.poll() is None
               and len(store_entries(cache_b)) < 1):
            time.sleep(0.05)
        if proc.poll() is not None:
            fail("fleet sweep finished before SIGINT could be "
                 "delivered; increase --duration")
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=args.timeout / 2)
        if proc.returncode != 130:
            fail(f"interrupted fleet sweep exited {proc.returncode}, "
                 f"expected 130\n{stderr}")
        report = ResultStore(cache_b).verify()
        stored = report["ok"]
        if report["quarantined"] or stored != len(store_entries(cache_b)):
            fail(f"store does not verify after interrupt: {report}")
        print(f"interrupt ok: exit 130, fleet drained, {stored} jobs "
              f"stored, 0 quarantined", flush=True)

        # --- the same command again: the re-run is the resume ----------
        resumed = subprocess.run(
            fleet_cmd(fleet_b, str(cache_b), args, kill,
                      extra=("--save", str(work / "resumed.json"))),
            env=env(), cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=args.timeout)
        if resumed.returncode != 0:
            fail(f"fleet re-run exited {resumed.returncode}\n"
                 f"{resumed.stderr}")
        executed = sum(" executed " in line
                       for line in resumed.stderr.splitlines())
        cached = sum(" cached " in line and "[repro.exec]" in line
                     for line in resumed.stderr.splitlines())
        total = 6  # 2 schemes x (2 busy + 1 idle)
        if executed != total - stored or cached != stored:
            fail(f"fleet re-run recomputed finished work: {executed} "
                 f"executed / {cached} cached with {stored} stored")
        if ((work / "resumed.json").read_bytes()
                != (work / "pool.json").read_bytes()):
            fail("re-run fleet sweep is not byte-identical to the "
                 "uninterrupted pool run")
        print(f"re-run ok: {executed} executed, {cached} cached, "
              f"byte-identical output", flush=True)

    print("fleet smoke PASSED", flush=True)


if __name__ == "__main__":
    main()
