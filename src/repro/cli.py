"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        one flow per scheme over a configurable cell (scheme
               list, SINR, carriers, busy/idle, duration)
``experiment`` run one figure of the claims registry
               (:mod:`repro.harness.claims`) at its reduced scale and
               print a line per claim
``sweep``      the §6.3.1 stationary sweep, parallel and cacheable,
               at any size
``fleet``      distributed sweep fabric: ``fleet worker`` joins a
               shared-directory worker fleet (leases, heartbeats,
               crash reclamation) from any host that shares the
               directory, ``fleet status`` observes one; ``sweep``
               drives its jobs through a fleet with ``--fleet-dir``
               (``--chaos FILE`` arms a seeded fault plan)
``cache``      audit the result cache: ``verify`` (scan, checksum,
               quarantine) or ``gc`` (reclaim quarantined/temp space)
``list``       list schemes and experiments

Multi-run commands (``experiment``, ``sweep``) accept ``--jobs N`` to
fan flows out over worker processes (``experiment``: the sweep's, for
table1/fig12/fig15) and ``--cache-dir`` to memoize completed runs on
disk (see :mod:`repro.exec`).  The long ``sweep`` is additionally
*supervised*: ``--timeout`` enforces a concurrent per-job deadline,
``--retries`` re-submits crashed/timed-out jobs with jittered backoff,
failures are isolated as structured records instead of aborting
(``--strict`` to abort on the first failure, ``--failure-budget PCT``
to abort once more than PCT%% of jobs fail), and Ctrl-C drains
in-flight work.
The result cache is the only record of a finished job, so re-running
the same command *is* the resume: finished jobs are cache hits, and
failed or interrupted jobs (never cached) run again from the start.

Examples
--------
    python -m repro run --scheme pbe --sinr 18 --busy --duration 6
    python -m repro run --scheme pbe,bbr,cubic --duration 5
    python -m repro experiment fig02
    python -m repro experiment table1 --jobs 4
    python -m repro sweep --schemes pbe,bbr --busy 8 --idle 5 \\
        --jobs 8 --cache-dir .repro-cache
    python -m repro cache verify --cache-dir .repro-cache
    python -m repro sweep --fleet-dir /shared/fleet --fleet-workers 4 \\
        --cache-dir .repro-cache
    python -m repro fleet worker --dir /shared/fleet   # on any host
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .harness import Experiment, FlowSpec, Scenario, claims
from .harness.report import format_table
from .harness.runner import SCHEMES

def _scheme_list(text: str) -> tuple:
    """``--scheme(s) a,b,…`` → a tuple of known scheme names."""
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    for scheme in schemes or (text,):
        if scheme not in SCHEMES:
            raise argparse.ArgumentTypeError(
                f"unknown scheme {scheme!r}; known: "
                f"{', '.join(sorted(SCHEMES))}")
    return schemes


def _chaos_file(path: str):
    """``--chaos FILE`` → the :class:`ChaosSpec` that file holds."""
    from .exec import ChaosSpec
    try:
        spec = ChaosSpec.load(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if spec is None:
        raise argparse.ArgumentTypeError(f"no chaos spec at {path}")
    return spec


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: each scheme's flow on the identical cell, rows
    sorted by throughput."""
    rows = []
    for scheme in args.scheme:
        print(f"running {scheme}...", file=sys.stderr)
        experiment = Experiment(Scenario(
            name="cli", aggregated_cells=args.carriers,
            mean_sinr_db=args.sinr, busy=args.busy,
            background_users=4 if args.busy else 0,
            internet_rate_bps=args.internet_mbps * 1e6,
            duration_s=args.duration, seed=args.seed))
        experiment.add_flow(FlowSpec(scheme=scheme))
        result = experiment.run()[0]
        s = result.summary
        rows.append([scheme, s.average_throughput_mbps,
                     s.average_delay_ms, s.p95_delay_ms,
                     result.lost_packets,
                     "yes" if result.ca_activations else "no"])
    rows.sort(key=lambda r: -r[1])
    print(format_table(
        ["scheme", "tput (Mbit/s)", "avg delay (ms)", "p95 delay (ms)",
         "lost", "CA"], rows))
    return 0


def _make_runner(args: argparse.Namespace, **supervision):
    """The multi-run commands' runner, from ``--jobs``/``--cache-dir``
    (progress on stderr once there is a pool or a cache to report)."""
    from .exec import StderrReporter, make_runner
    progress = StderrReporter() if (args.jobs > 1 or args.cache_dir) \
        else None
    return make_runner(args.jobs, args.cache_dir, progress, **supervision)


def _fleet_backend(args: argparse.Namespace):
    """Build the ``--fleet-dir`` backend (and its telemetry line)."""
    from .exec import FleetBackend
    chaos = args.chaos if args.chaos and args.chaos.active else None
    if chaos is not None:
        print(f"[repro] chaos injection armed: {chaos.to_dict()}",
              file=sys.stderr)

    def telemetry(line: str) -> None:
        print(f"[repro] {line}", file=sys.stderr, flush=True)

    return FleetBackend(args.fleet_dir, ttl_s=args.fleet_ttl,
                        local_workers=args.fleet_workers,
                        chaos=chaos, telemetry=telemetry)


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment <name>``: one figure of the claims registry
    at its reduced scale, a line per claim."""
    runs = claims.Runs("reduced", _make_runner(args))
    for entry in claims.entries(runs, claims.by_name(args.name)):
        print(claims.claim_line(entry))
    return 0


def _print_sweep(args: argparse.Namespace, sweep) -> None:
    """Print a finished stationary sweep's per-scheme summary; write
    its entries to ``--save``."""
    from .harness import experiments as exp
    from .harness.serialize import write_json_atomic
    rows = []
    for scheme in sweep.schemes():
        for condition in ("busy", "idle"):
            entries = [e for e in sweep.for_scheme(scheme)
                       if e.busy == (condition == "busy")]
            if not entries:
                continue
            n = len(entries)
            rows.append([
                scheme, condition, n,
                sum(e.summary.average_throughput_mbps
                    for e in entries) / n,
                sum(e.summary.average_delay_ms for e in entries) / n,
                sum(e.summary.p95_delay_ms for e in entries) / n])
    print(format_table(
        ["scheme", "cond", "locs", "tput (Mbit/s)",
         "avg delay (ms)", "p95 delay (ms)"], rows,
        title=f"Stationary sweep ({args.busy} busy + {args.idle} "
              f"idle locations, {args.duration:g} s flows)"))
    if args.save:
        write_json_atomic([exp.entry_to_dict(e) for e in sweep.entries],
                          args.save)
        print(f"saved {len(sweep.entries)} entries to {args.save}",
              file=sys.stderr)


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: the stationary sweep, supervised end to end.

    Runs the sweep on the supervised runner (through a worker fleet
    when ``--fleet-dir`` is set) and maps its aborts to exit codes: a
    drained SIGINT/SIGTERM → 130, a tripped failure budget → 3, any
    isolated job failure → 1.
    """
    from .exec import FailureBudgetExceeded, SweepInterrupted
    from .harness import experiments as exp
    budget = (args.failure_budget / 100.0
              if args.failure_budget is not None else None)
    backend = _fleet_backend(args) if args.fleet_dir else None
    runner = _make_runner(
        args, retries=args.retries, timeout_s=args.timeout,
        strict=args.strict, failure_budget=budget, backend=backend)
    try:
        sweep = exp.run_stationary_sweep(
            schemes=args.schemes, n_busy=args.busy, n_idle=args.idle,
            duration_s=args.duration, base_seed=args.seed, runner=runner)
    except SweepInterrupted as exc:
        print(f"[repro] {exc}", file=sys.stderr)
        return 130
    except FailureBudgetExceeded as exc:
        print(f"[repro] {exc}", file=sys.stderr)
        return 3
    finally:
        # The runner shuts a persistent backend down when it ran jobs;
        # cover the all-cache-hits path (and idempotently otherwise)
        # so spawned local workers never outlive the sweep.
        if backend is not None:
            backend.shutdown(wait=True)
    _print_sweep(args, sweep)
    # Surface degraded-run telemetry; exit non-zero on failures.
    stats = runner.stats
    if (runner.progress is not None or sweep.failures or stats.failed
            or stats.quarantined):
        print(f"[repro] {stats.format()}", file=sys.stderr)
    for failure in sweep.failures:
        print(f"[repro] FAILED {failure.summary()}", file=sys.stderr)
    return 1 if sweep.failures else 0


def cmd_fleet_worker(args: argparse.Namespace) -> int:
    """``repro fleet worker``: join a fleet and pull jobs until stopped."""
    from .exec import run_worker
    return run_worker(args.dir, worker_id=args.id, ttl_s=args.ttl,
                      poll_s=args.poll, max_jobs=args.max_jobs)


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """``repro fleet status``: observe a fleet directory, read-only."""
    from .exec import fleet_status
    status = fleet_status(args.dir)
    print(f"fleet {status['root']}: {status['queued']} queued, "
          f"{len(status['leases'])} leases in flight, "
          f"{status['results']} results")
    if status["workers"]:
        rows = []
        for worker in status["workers"]:
            rows.append([worker["worker"], worker["pid"],
                         worker["executed"], worker["reclaimed"],
                         round(worker["jobs_per_min"], 2),
                         round(worker["stale_s"], 1)])
        print(format_table(
            ["worker", "pid", "executed", "reclaimed", "jobs/min",
             "beacon age (s)"],
            rows))
    if status["leases"]:
        rows = [[lease["label"], lease["worker"],
                 round(lease["held_s"], 1)]
                for lease in status["leases"]]
        print(format_table(["job", "worker", "held (s)"], rows))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache verify|gc``: audit/repair the result store."""
    from .exec import ResultStore
    store = ResultStore(args.cache_dir)
    if args.action == "verify":
        report = store.verify()
        print(f"checked {report['checked']} entries: {report['ok']} ok, "
              f"{report['quarantined']} quarantined, "
              f"{report['foreign']} foreign files skipped")
        print(f"store: {store.stats().format()}")
        return 1 if report["quarantined"] else 0
    out = store.gc(tmp_grace_s=args.tmp_grace)
    print(f"gc: removed {out['removed']} quarantined/temp files, "
          f"reclaimed {out['bytes']} bytes")
    print(f"store: {store.stats().format()}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: schemes and experiments."""
    print("schemes:     " + ", ".join(sorted(SCHEMES)))
    print("experiments: " + ", ".join(f.name for f in claims.FIGURES))
    return 0


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent runs "
                             "(default 1 = inline)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory "
                             "(skips runs whose inputs and code are "
                             "unchanged)")


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    """Failure-isolation/deadline/retry knobs for the long sweeps."""
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-job deadline in seconds, enforced "
                             "concurrently across in-flight jobs")
    parser.add_argument("--retries", type=int, default=1,
                        help="re-submissions after a worker crash or "
                             "timeout, with jittered exponential "
                             "backoff (default 1)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first failed job instead of "
                             "isolating it as a structured failure")
    parser.add_argument("--failure-budget", type=float, default=None,
                        metavar="PCT",
                        help="abort early once more than PCT%% of jobs "
                             "have failed")


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    """``--fleet-*`` routing plus a seeded fault plan for it."""
    parser.add_argument("--fleet-dir", default=None, metavar="DIR",
                        help="route jobs through a worker fleet "
                             "sharing DIR instead of a local process "
                             "pool (external workers may join with "
                             "`repro fleet worker --dir DIR`)")
    parser.add_argument("--fleet-workers", type=int, default=2,
                        metavar="N",
                        help="local fleet workers to spawn "
                             "(default 2; 0 = external workers only)")
    parser.add_argument("--fleet-ttl", type=float, default=10.0,
                        metavar="S",
                        help="fleet lease TTL in seconds (default 10)")
    parser.add_argument("--chaos", type=_chaos_file, default=None,
                        metavar="FILE",
                        help="the fleet's seeded fault plan: a "
                             "ChaosSpec JSON object, e.g. {\"seed\": 3, "
                             "\"kill_prob\": 1}; each fault fires at "
                             "most once per job fleet-wide")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PBE-CC reproduction (SIGCOMM 2020) simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one flow per scheme on the same cell")
    p_run.add_argument("--scheme", type=_scheme_list, default="pbe",
                       metavar="A[,B...]",
                       help="comma-separated scheme list (default pbe; "
                            "see `repro list`)")
    p_run.add_argument("--sinr", type=float, default=18.0,
                       help="mean SINR in dB (default 18)")
    p_run.add_argument("--carriers", type=int, default=2,
                       choices=(1, 2, 3),
                       help="aggregated carriers (default 2)")
    p_run.add_argument("--busy", action="store_true",
                       help="busy cell with background users")
    p_run.add_argument("--internet-mbps", type=float, default=1000.0,
                       help="wired-path rate (default: non-bottleneck)")
    p_run.add_argument("--duration", type=float, default=6.0,
                       help="flow duration in seconds (default 6)")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser(
        "experiment", help="run one paper figure of the claims registry "
                           "at reduced scale, a line per claim")
    p_exp.add_argument("name", choices=[f.name for f in claims.FIGURES])
    _add_exec_options(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep", help="run the stationary location sweep "
                      "(parallel, cacheable)")
    p_sweep.add_argument("--schemes", type=_scheme_list,
                         default="pbe,bbr",
                         help="comma-separated scheme list (default "
                              "pbe,bbr)")
    p_sweep.add_argument("--busy", type=int, default=4,
                         help="busy locations (paper: 25)")
    p_sweep.add_argument("--idle", type=int, default=2,
                         help="idle locations (paper: 15)")
    p_sweep.add_argument("--duration", type=float, default=6.0,
                         help="flow duration in seconds")
    p_sweep.add_argument("--seed", type=int, default=100,
                         help="base seed of the location grid")
    p_sweep.add_argument("--save", default=None, metavar="FILE",
                         help="also write per-run JSON entries here")
    _add_exec_options(p_sweep)
    _add_supervision_options(p_sweep)
    _add_fleet_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fleet = sub.add_parser(
        "fleet", help="distributed sweep fabric: join or observe a "
                      "shared-directory worker fleet (drive one "
                      "with `sweep --fleet-dir`)")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_cmd", required=True)

    p_fw = fleet_sub.add_parser(
        "worker", help="join the fleet at --dir: claim jobs under "
                       "heartbeat-renewed leases until stopped "
                       "(first SIGTERM finishes the current job and "
                       "exits; a second abandons it)")
    p_fw.add_argument("--dir", required=True,
                      help="the fleet's shared directory")
    p_fw.add_argument("--id", default=None,
                      help="worker id (default host-pid)")
    p_fw.add_argument("--ttl", type=float, default=10.0, metavar="S",
                      help="lease TTL in seconds (default 10)")
    p_fw.add_argument("--poll", type=float, default=0.2, metavar="S",
                      help="idle queue poll interval (default 0.2)")
    p_fw.add_argument("--max-jobs", type=int, default=None,
                      help="exit after executing this many jobs")
    p_fw.set_defaults(func=cmd_fleet_worker)

    p_fstat = fleet_sub.add_parser(
        "status", help="read-only snapshot of a fleet directory: "
                       "queue depth, live leases (with how long each "
                       "is held), and per-worker throughput from the "
                       "liveness beacons")
    p_fstat.add_argument("--dir", required=True,
                         help="the fleet's shared directory")
    p_fstat.set_defaults(func=cmd_fleet_status)

    p_cache = sub.add_parser(
        "cache", help="audit the result cache (verify / gc)")
    p_cache.add_argument("action", choices=("verify", "gc"),
                         help="verify: scan+checksum every entry, "
                              "quarantine invalid ones; gc: reclaim "
                              "quarantined/temp space")
    p_cache.add_argument("--cache-dir", required=True,
                         help="result cache directory to audit")
    p_cache.add_argument("--tmp-grace", type=float, default=None,
                         metavar="S",
                         help="gc: skip *.tmp files younger than S "
                              "seconds (default 3600) — they may be a "
                              "live sweep's in-flight atomic write; "
                              "pass 0 when no sweep is running")
    p_cache.set_defaults(func=cmd_cache)

    p_list = sub.add_parser("list", help="list schemes and experiments")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` script."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
