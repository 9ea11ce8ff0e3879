#!/usr/bin/env python3
"""The reference benchmark: one command per workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]
    python3 bench/run.py --all [--seeds 1-10] [--seconds S] --out FILE

``--trace 0`` (default) is the untraced pass and prints the six
end-to-end metrics; ``--trace 1`` is the traced pass and prints the
per-layer metrics.  Either way every metric is printed by name with its
unit, the correctness checks run on every repetition, the last line of
standard output is the machine-readable result, and the exit status is
non-zero when a check failed.  README.md explains the run shape.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space of one run (stores, snapshots, fleet directories); it
#: sits inside the checkout and is removed when the run ends.
WORKDIR = ROOT / ".bench_work" / str(os.getpid())

sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
from repro.perf import PerfCounters  # noqa: E402

from clock import Timing, measure  # noqa: E402
from metrics import PER_LAYER, RUN_SECONDS, UNITS, quartiles  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter imports timed for ``setup_s``.
IMPORT_SAMPLES = 7
IMPORT_STATEMENT = "import repro.harness, repro.exec, repro.metro"
#: A traced repetition costs about this many untraced ones.
TRACED_COST = 1.3
#: Share of ``--seconds`` that the fixed repetitions fill at reference
#: speed.  The box runs up to ~1.45x slower for minutes at a time; the
#: fixed repetitions must still fit the run's time budget then.
FIXED_SHARE = 0.75


def sub_seed(workload: str, seed: int, rep: int) -> int:
    """The scenario seed of repetition ``rep`` of a run with ``seed``.

    Hashed, because the package derives its internal streams from
    ``seed + small offsets``: neighbouring integers would share streams.
    """
    digest = hashlib.sha256(f"{workload}:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2 ** 31


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def import_package() -> None:
    """Import the package in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", IMPORT_STATEMENT],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)


def interquartile_mean(values: list) -> float:
    """Mean of the middle half (a quarter trimmed from each end)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Repetition:
    build_s: float
    #: The timed ``run`` step (raw seconds and the machine's slowdown).
    timing: Timing
    #: Build + run + digest + check, the whole of what a trace covers.
    total_s: float
    digest: str
    outcome: object


def repetition(workload, seed: int, tracer: Tracer = None,
               perf: PerfCounters = None) -> Repetition:
    """Build, run (timed), digest and check one fresh experiment."""
    call = tracer.call if tracer is not None \
        else lambda name, fn, *args: fn(*args)
    gc.collect()
    t_start = time.perf_counter()
    built = call(workload.build_span, workload.build, seed, WORKDIR)
    build_s = time.perf_counter() - t_start
    try:
        if perf is not None and workload.traces_layers:
            built.experiment.sim.perf = perf
            built.experiment.network.perf = perf
        timing = measure(workload.run, built)
        digest = call("harness.digest", workload.digest, built,
                      timing.result)
        outcome = workload.check(built, timing.result)
    finally:
        workload.dispose(built)
    timing.result = None  # the experiment's memory is not kept
    return Repetition(build_s, timing, time.perf_counter() - t_start,
                      digest, outcome)


def run_digest(digests: list) -> str:
    """One digest for the run: the hash of its repetitions' digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def samples(reps: list, imports: list) -> dict:
    """Every raw measurement of a run, for the ``--out`` document."""
    return {"wall_s": [r.timing.wall_s for r in reps],
            "cpu_s": [r.timing.cpu_s for r in reps],
            "slowdown": [r.timing.slowdown for r in reps],
            "build_s": [r.build_s for r in reps],
            "import_s": [t.wall_s for t in imports],
            "import_slowdown": [t.slowdown for t in imports]}


def fixed_repetitions(workload, seconds: float, cost: float = 1.0) -> int:
    """Repetitions a run always makes (each ``cost`` plain ones long)."""
    return max(3, round(FIXED_SHARE * seconds
                        / (cost * workload.rep_host_s)))


def untraced_pass(workload, seed: int, seconds: float) -> dict:
    """Warm-up + timed repetitions -> the end-to-end metrics.

    Repetitions go on until ``seconds`` have passed, and at least to a
    fixed count.  The simulated metrics and the digest come from that
    fixed set, so they repeat exactly for a given seed however fast the
    machine happens to be; the timings use every repetition.
    """
    imports = [measure(import_package) for _ in range(IMPORT_SAMPLES)]
    n_fixed = fixed_repetitions(workload, seconds)
    # The warm-up repeats repetition 0's inputs, so besides filling
    # caches it is check (a): same inputs, same digest, same process.
    warm = repetition(workload, sub_seed(workload.name, seed, 0))
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < n_fixed or time.perf_counter() < deadline:
        reps.append(repetition(
            workload, sub_seed(workload.name, seed, len(reps))))
    fixed = reps[:n_fixed]

    failures = []
    if warm.digest != reps[0].digest:
        reps[0].outcome.failures.append(
            f"digest not reproducible: warm-up {warm.digest[:16]} vs "
            f"repetition 0 {reps[0].digest[:16]}")
    attempted = failed = 0
    for i, rep in enumerate(reps):
        attempted += 1 + rep.outcome.extra_ops
        if rep.outcome.failures:
            failed += 1
            failures += [f"repetition {i}: {f}" for f in rep.outcome.failures]
    run_failures = workload.check_run([r.outcome for r in fixed])
    if run_failures:
        failed += 1
        failures += run_failures

    sim_s = workload.sim_s
    wall_q1, wall, wall_q3 = quartiles([r.timing.ref_wall_s for r in reps])
    cpu_q1, cpu, cpu_q3 = quartiles([r.timing.ref_cpu_s for r in reps])
    pbe = [flow for r in fixed for flow in r.outcome.pbe]
    # The build runs just before the repetition's first kernel sample.
    setup = statistics.median(t.ref_wall_s for t in imports) \
        + statistics.median(r.build_s / r.timing.slowdown for r in reps)
    n = len(reps)
    metrics = {
        "sim_rate": {"value": sim_s / wall, "q1": sim_s / wall_q3,
                     "q3": sim_s / wall_q1, "n": n},
        "cpu_s_per_sim_s": {"value": cpu / sim_s, "q1": cpu_q1 / sim_s,
                            "q3": cpu_q3 / sim_s, "n": n},
        "peak_rss_mb": {"value": peak_rss_mb()},
        "setup_s": {"value": setup, "n": IMPORT_SAMPLES},
        "pbe_tput_mbps": {
            "value": interquartile_mean([f[0] for f in pbe]), "n": len(pbe)},
        "pbe_p95_delay_ms": {
            "value": interquartile_mean([f[1] for f in pbe]), "n": len(pbe)},
    }
    return {"repetitions": n, "digest": run_digest([r.digest for r in fixed]),
            "attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "samples": samples(reps, imports)}


def traced_pass(workload, seed: int, seconds: float) -> dict:
    """Untraced/traced pairs on equal inputs -> the per-layer metrics.

    A fixed number of pairs, so every ``*.calls_per_sim_s`` repeats
    exactly for a given seed.
    """
    n_pairs = fixed_repetitions(workload, seconds, cost=1 + TRACED_COST)
    tracer = Tracer()
    repetition(workload, sub_seed(workload.name, seed, 0))  # warm-up
    counts = collections.Counter()
    plain_walls, traced_walls, digests, outcomes, failures = \
        [], [], [], [], []
    span_self_s, span_share, span_calls = (
        collections.Counter() for _ in range(3))
    attempted = failed = 0
    for i in range(n_pairs):
        rep_seed = sub_seed(workload.name, seed, i)
        plain = repetition(workload, rep_seed)
        perf = PerfCounters()
        if workload.traces_layers:
            tracer.install()
        try:
            traced = repetition(workload, rep_seed, tracer, perf)
        finally:
            if workload.traces_layers:
                tracer.uninstall()
        for span, (self_s, calls) in tracer.drain().items():
            # Self time at reference speed, like every other timing.
            span_self_s[span] += self_s / traced.timing.slowdown
            span_share[span] += self_s / traced.total_s / n_pairs
            span_calls[span] += calls
        plain_walls.append(plain.timing.ref_wall_s)
        traced_walls.append(traced.timing.ref_wall_s)
        digests.append(traced.digest)
        outcomes.append(traced.outcome)
        counts.update(traced.outcome.counts)
        counts.update({"ticks": perf.ticks, "popped": perf.events_popped,
                       "cancelled": perf.events_cancelled_popped,
                       "scheduled": perf.events_scheduled,
                       "ack_batches": perf.ack_batches,
                       "acks_batched": perf.acks_batched})
        problems = plain.outcome.failures + traced.outcome.failures
        if traced.digest != plain.digest:
            problems.append(f"traced digest {traced.digest[:16]} differs "
                            f"from untraced {plain.digest[:16]}")
        attempted += 2 + plain.outcome.extra_ops + traced.outcome.extra_ops
        if problems:
            failed += 1
            failures += [f"pair {i}: {p}" for p in problems]
    run_failures = workload.check_run(outcomes)
    if run_failures:
        failed += 1
        failures += run_failures
    for target in tracer.missing:
        print(f"bench: trace target not found: {target}", file=sys.stderr)

    sim_s = n_pairs * workload.sim_s
    values = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    for span in span_calls:
        values[f"{span}.self_ms_per_sim_s"] = 1e3 * span_self_s[span] / sim_s
        values[f"{span}.calls_per_sim_s"] = span_calls[span] / sim_s
        values[f"{span}.share"] = span_share[span]
    c = counts
    values.update({
        "net.sim.events_popped_per_tick": ratio(c["popped"], c["ticks"]),
        "net.sim.events_scheduled_per_tick":
            ratio(c["scheduled"], c["ticks"]),
        "net.sim.cancelled_event_ratio":
            ratio(c["cancelled"], c["popped"] + c["cancelled"]),
        "net.uplink.acks_per_batch":
            ratio(c["acks_batched"], c["ack_batches"]),
        "cell.ue.tbs_per_tick": ratio(c["tbs"], c["ticks"]),
        "cell.ue.abandoned_tb_ratio": ratio(c["abandoned_tbs"], c["tbs"]),
        "monitor.ingest.messages_per_subframe":
            ratio(c["messages"], c["subframes"]),
        "baselines.ack_clock.lost_packet_ratio": ratio(c["lost"], c["sent"]),
        "faults.pipe.dropped_ratio":
            ratio(c["pipe_dropped"],
                  c["pipe_dropped"] + c["pipe_forwarded"]),
        "exec.job_wall_s": ratio(c["job_wall_s"], c["jobs_executed"]),
        "exec.dispatch_overhead_s":
            ratio(c["cold_wall_s"] - c["job_wall_s"] / 2, c["cold_passes"]),
        "exec.store.warm_s_per_job": ratio(c["warm_s"], c["jobs"]),
        "exec.cache_hit_rate": ratio(c["warm_hits"], c["jobs"]),
        "exec.retries": float(c["retries"]),
        "trace.overhead_frac": statistics.median(traced_walls)
            / statistics.median(plain_walls) - 1.0,
    })
    values.update(workload.extras(sub_seed(workload.name, seed, 0),
                                  WORKDIR, plain_walls[0]))
    return {"repetitions": n_pairs, "digest": run_digest(digests),
            "attempted": attempted, "failed": failed, "failures": failures,
            "metrics": {name: {"value": value}
                        for name, value in values.items()}}


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the document ``--out`` writes."""
    workload = WORKLOADS[name]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        result = (traced_pass if trace else untraced_pass)(
            workload, seed, seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for metric, entry in result["metrics"].items():
        entry["unit"] = UNITS[metric]
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "machine": machine_facts(),
            "correct": result["failed"] == 0, **result}


def print_run(doc: dict) -> None:
    """Human-readable metrics, then the one-line result."""
    print(f"workload {doc['workload']}  seed {doc['seed']}  "
          f"trace {doc['trace']}  repetitions {doc['repetitions']}  "
          f"digest {doc['digest'][:16]}")
    for name, entry in doc["metrics"].items():
        spread = (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
                  if "q1" in entry else "")
        count = f"  n={entry['n']}" if "n" in entry else ""
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}"
              f"{spread}{count}")
    print(f"  ops_attempted {doc['attempted']}  ops_failed {doc['failed']}")
    for failure in doc["failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in doc["metrics"].items()}}))


def run_all(seeds: list, seconds: float, out: Path) -> bool:
    """Every workload, each run in a fresh interpreter.

    Per workload: one untraced run per seed, then one traced run on the
    first seed.  The runs' documents are bundled into ``out``.
    """
    runs = []
    part = out.with_suffix(".part")
    for name in WORKLOADS:
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", str(part)],
                stdout=subprocess.DEVNULL)
            if not part.exists():
                print(f"{name} seed {seed} trace {trace}: no result "
                      f"(exit {done.returncode})", file=sys.stderr)
                return False
            runs.append(json.loads(part.read_text()))
            part.unlink()
            print(f"{name} seed {seed} trace {trace}: "
                  f"{'ok' if runs[-1]['correct'] else 'CHECK FAILED'}",
                  flush=True)
    out.write_text(json.dumps({"machine": machine_facts(), "runs": runs},
                              indent=1))
    return all(run["correct"] for run in runs)


def parse_seeds(text: str) -> list:
    """``"3"`` -> [3]; ``"1-10"`` -> [1..10]; ``"1,2,5"`` -> [1, 2, 5]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=list(WORKLOADS))
    what.add_argument("--all", action="store_true",
                      help="every workload, both passes (needs --out)")
    parser.add_argument("--seed", type=int, default=1,
                        help="every scenario/fault/grid seed derives from "
                             "it (2 is the held-out verification seed)")
    parser.add_argument("--seeds", type=parse_seeds,
                        help="with --all: e.g. 1-10 (default: --seed)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long a run measures; below the default "
                             "the numbers are not comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the run's document here")
    args = parser.parse_args(argv)
    if args.all:
        if args.out is None:
            parser.error("--all needs --out")
        ok = run_all(args.seeds or [args.seed], args.seconds, args.out)
        return 0 if ok else 1
    doc = run_one(args.workload, args.seed, args.seconds, args.trace)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1))
    print_run(doc)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
