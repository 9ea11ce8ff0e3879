"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        one flow over a configurable cell (scheme, SINR,
               carriers, busy/idle, duration)
``compare``    several schemes head-to-head on the same cell
``experiment`` run one of the paper's table/figure drivers by name
``sweep``      the §6.3.1 stationary sweep, parallel and cacheable
``resilience`` fault-injection sweep: DCI miss-rate × decoder-outage
               grid with graceful-degradation telemetry
``metro``      metro-scale scenario engine: hundreds of cells with
               diurnal populations, walker handover churn and
               coexistence fleets; writes the per-cell fairness/
               capacity matrix (``--smoke`` for the CI-sized set)
``fleet``      distributed sweep fabric: ``fleet worker`` joins a
               shared-directory worker fleet (leases, heartbeats,
               crash reclamation) from any host that shares the
               directory, ``fleet status`` observes one; ``sweep`` and
               ``metro`` drive their jobs through a fleet with
               ``--fleet-dir`` (optional seeded chaos injection)
``cache``      audit the result cache: ``verify`` (scan, checksum,
               quarantine) or ``gc`` (reclaim quarantined/temp space)
``list``       list schemes, experiments and metro scenario sets

Multi-run commands (``experiment`` sweeps, ``sweep``) accept ``--jobs
N`` to fan simulations out over worker processes and ``--cache-dir``
to memoize completed runs on disk (see :mod:`repro.exec`).  The long
sweeps (``sweep``, ``resilience``) are additionally *supervised*:
``--timeout`` enforces a concurrent per-job deadline, ``--retries``
re-submits crashed/timed-out jobs with jittered backoff, failures are
isolated as structured records instead of aborting (``--strict`` to
abort on the first failure, ``--failure-budget PCT`` to abort once
more than PCT%% of jobs fail), and Ctrl-C drains in-flight work.
The result cache is the only record of a finished job, so re-running
the same command *is* the resume: finished jobs are cache hits,
failures (never cached) re-attempt, and with ``--checkpoint-dir``
interrupted jobs restore their newest mid-run snapshot.

Examples
--------
    python -m repro run --scheme pbe --sinr 18 --busy --duration 6
    python -m repro compare --schemes pbe,bbr,cubic --duration 5
    python -m repro experiment fig02
    python -m repro experiment table1 --locations 4 --jobs 4
    python -m repro sweep --schemes pbe,bbr --busy 8 --idle 5 \\
        --jobs 8 --cache-dir .repro-cache --view table1
    python -m repro resilience --miss 0,0.05,0.2 --outage-ms 0,500 \\
        --jobs 4
    python -m repro resilience --smoke
    python -m repro metro --smoke --out metro_matrix.json
    python -m repro metro --set metro-240 --jobs 8 \\
        --cache-dir .repro-cache
    python -m repro cache verify --cache-dir .repro-cache
    python -m repro sweep --fleet-dir /shared/fleet --fleet-workers 4 \\
        --cache-dir .repro-cache
    python -m repro fleet worker --dir /shared/fleet   # on any host
    python -m repro metro --smoke --fleet-dir /tmp/fleet \\
        --fleet-workers 2
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .harness import Experiment, FlowSpec, Scenario
from .harness.report import format_table
from .harness.runner import SCHEMES

#: Experiment-name registry for the ``experiment`` command.
EXPERIMENTS = ("table1", "fig02", "fig05", "fig06", "fig07", "fig08",
               "fig11",
               "fig12", "fig13", "fig15", "fig16", "fig18", "fig20",
               "fig21", "ablation")


def _build_scenario(args: argparse.Namespace) -> Scenario:
    return Scenario(
        name="cli",
        aggregated_cells=args.carriers,
        mean_sinr_db=args.sinr,
        busy=args.busy,
        background_users=4 if args.busy else 0,
        internet_rate_bps=args.internet_mbps * 1e6,
        duration_s=args.duration,
        seed=args.seed)


def _run_one(scenario: Scenario, scheme: str) -> list:
    experiment = Experiment(scenario)
    experiment.add_flow(FlowSpec(scheme=scheme))
    result = experiment.run()[0]
    s = result.summary
    return [scheme, s.average_throughput_mbps, s.average_delay_ms,
            s.p95_delay_ms, result.lost_packets,
            "yes" if result.ca_activations else "no"]


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one flow over the configured cell."""
    row = _run_one(_build_scenario(args), args.scheme)
    print(format_table(
        ["scheme", "tput (Mbit/s)", "avg delay (ms)", "p95 delay (ms)",
         "lost", "CA"], [row]))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: several schemes on the identical cell."""
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    rows = []
    for scheme in schemes:
        print(f"running {scheme}...", file=sys.stderr)
        rows.append(_run_one(_build_scenario(args), scheme))
    rows.sort(key=lambda r: -r[1])
    print(format_table(
        ["scheme", "tput (Mbit/s)", "avg delay (ms)", "p95 delay (ms)",
         "lost", "CA"], rows))
    return 0


def _exec_kwargs(args: argparse.Namespace) -> dict:
    """Runner configuration shared by the multi-run commands."""
    from .exec import StderrReporter
    progress = StderrReporter() if (args.jobs > 1 or args.cache_dir) \
        else None
    return {"jobs": args.jobs, "cache_dir": args.cache_dir,
            "progress": progress}


def _chaos_spec(args: argparse.Namespace):
    """A :class:`ChaosSpec` from the ``--chaos-*`` flags (or None)."""
    from .exec import ChaosSpec
    stall_s = (args.chaos_stall_s if args.chaos_stall_s is not None
               else 2.5 * args.fleet_ttl)  # enough to trip reclaim
    spec = ChaosSpec(seed=args.chaos_seed, kill_prob=args.chaos_kill,
                     kill_mid_job_prob=args.chaos_kill_mid,
                     stall_prob=args.chaos_stall, stall_s=stall_s,
                     claim_delay_prob=args.chaos_delay,
                     claim_delay_s=args.chaos_delay_s,
                     duplicate_claim_prob=args.chaos_dup,
                     corrupt_prob=args.chaos_corrupt)
    return spec if spec.active else None


def _fleet_backend(args: argparse.Namespace):
    """Build the ``--fleet-dir`` backend (and its telemetry line)."""
    from .exec import FleetBackend
    chaos = _chaos_spec(args)
    if chaos is not None:
        print(f"[repro] chaos injection armed: {chaos.to_dict()}",
              file=sys.stderr)

    def telemetry(line: str) -> None:
        print(f"[repro] {line}", file=sys.stderr, flush=True)

    return FleetBackend(args.fleet_dir, ttl_s=args.fleet_ttl,
                        local_workers=args.fleet_workers,
                        chaos=chaos, telemetry=telemetry)


def _run_supervised(args: argparse.Namespace, drive, render) -> int:
    """Run ``drive(runner)`` supervised, ``render`` what it returns.

    Builds the supervised runner for the long sweep commands (through
    a worker fleet when the command has ``--fleet-dir`` set) and maps
    its aborts to exit codes: a drained SIGINT/SIGTERM → 130, a
    tripped failure budget → 3, any isolated job failure → 1.
    """
    from .exec import FailureBudgetExceeded, SweepInterrupted, make_runner
    budget = (args.failure_budget / 100.0
              if args.failure_budget is not None else None)
    backend = (_fleet_backend(args)
               if getattr(args, "fleet_dir", None) else None)
    runner = make_runner(
        retries=args.retries, timeout_s=args.timeout,
        strict=args.strict, failure_budget=budget, backend=backend,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every, **_exec_kwargs(args))
    try:
        result = drive(runner)
    except SweepInterrupted as exc:
        print(f"[repro] {exc}", file=sys.stderr)
        return 130
    except FailureBudgetExceeded as exc:
        print(f"[repro] {exc}", file=sys.stderr)
        return 3
    finally:
        # The runner shuts a persistent backend down when it ran jobs;
        # cover the all-cache-hits path (and idempotently otherwise)
        # so spawned local workers never outlive the drive.
        if backend is not None:
            backend.shutdown(wait=True)
    render(result)
    # Surface degraded-run telemetry; exit non-zero on failures.
    stats = runner.stats
    if (runner.progress is not None or result.failures or stats.failed
            or stats.quarantined):
        print(f"[repro] {stats.format()}", file=sys.stderr)
    for failure in result.failures:
        print(f"[repro] FAILED {failure.summary()}", file=sys.stderr)
    return 1 if result.failures else 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment <name>``: run a paper table/figure driver."""
    from .harness import experiments as exp
    name = args.name
    if name == "table1":
        sweep = exp.run_stationary_sweep(
            schemes=("pbe", "bbr", "verus", "copa"),
            n_busy=args.locations, n_idle=max(1, args.locations * 3 // 5),
            duration_s=args.duration, **_exec_kwargs(args))
        print(exp.table1_from_sweep(sweep).format())
    elif name == "fig12":
        sweep = exp.run_stationary_sweep(
            schemes=("pbe", "bbr", "cubic", "verus"),
            n_busy=args.locations, n_idle=max(1, args.locations * 3 // 5),
            duration_s=args.duration, **_exec_kwargs(args))
        print(exp.fig12_from_sweep(sweep).format())
    elif name == "fig15":
        sweep = exp.run_stationary_sweep(
            schemes=("pbe", "bbr", "cubic", "copa", "sprout"),
            n_busy=args.locations, n_idle=max(1, args.locations * 3 // 5),
            duration_s=args.duration, **_exec_kwargs(args))
        print(exp.fig15_from_sweep(sweep).format())
    elif name == "fig02":
        print(exp.run_fig02().format())
    elif name == "fig05":
        print(exp.run_fig05().format())
    elif name == "fig06":
        print(exp.run_fig06().format())
    elif name == "fig07":
        print(exp.run_fig07(duration_s=args.duration).format())
    elif name == "fig08":
        print(exp.run_fig08().format())
    elif name == "fig11":
        print(exp.run_fig11().format())
    elif name == "fig13":
        print(exp.run_fig13_14(duration_s=args.duration,
                               **_exec_kwargs(args)).format())
    elif name == "fig16":
        print(exp.run_fig16_17(duration_s=2 * args.duration).format())
    elif name == "fig18":
        print(exp.run_fig18_19(duration_s=2 * args.duration).format())
    elif name == "fig20":
        print(exp.run_fig20(duration_s=args.duration).format())
    elif name == "fig21":
        print(exp.run_fig21(time_scale=args.duration / 60.0).format())
    elif name == "ablation":
        print(exp.run_ablation(duration_s=args.duration,
                               **_exec_kwargs(args)).format())
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(name)
    return 0


def _print_sweep(args: argparse.Namespace, sweep) -> None:
    """Render a finished stationary sweep per ``--view`` / ``--save``."""
    from .harness import experiments as exp
    from .harness.serialize import write_json_atomic
    if args.view == "table1":
        print(exp.table1_from_sweep(sweep).format())
    elif args.view == "fig12":
        print(exp.fig12_from_sweep(sweep).format())
    elif args.view == "fig15":
        print(exp.fig15_from_sweep(sweep).format())
    else:
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
    """``repro sweep``: the stationary sweep, supervised end to end."""
    from .harness import experiments as exp
    schemes = tuple(s.strip() for s in args.schemes.split(",")
                    if s.strip())
    return _run_supervised(
        args,
        lambda runner: exp.run_stationary_sweep(
            schemes=schemes, n_busy=args.busy, n_idle=args.idle,
            duration_s=args.duration, base_seed=args.seed,
            runner=runner),
        lambda sweep: _print_sweep(args, sweep))


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
        rows = []
        for lease in status["leases"]:
            subframe = lease["checkpoint_subframe"]
            age = lease["checkpoint_age_s"]
            rows.append([
                lease["label"], lease["worker"],
                round(lease["held_s"], 1),
                "-" if subframe is None else subframe,
                "-" if age is None else round(age, 1)])
        print(format_table(
            ["job", "worker", "held (s)", "ckpt subframe",
             "ckpt age (s)"], rows))
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    """``repro resilience``: the fault-injection degradation sweep."""
    from .harness import experiments as exp
    if args.smoke:
        # CI-sized: one scheme, one impaired cell with a mid-run
        # outage, so the fallback/recovery path runs on every push.
        schemes: tuple = ("pbe",)
        miss_rates: tuple = (0.0, 0.2)
        outages_ms: tuple = (0, 500)
        duration = 2.0
    else:
        schemes = tuple(s.strip() for s in args.schemes.split(",")
                        if s.strip())
        miss_rates = tuple(float(m) for m in args.miss.split(","))
        outages_ms = tuple(int(o) for o in args.outage_ms.split(","))
        duration = args.duration
    return _run_supervised(
        args,
        lambda runner: exp.run_resilience(
            schemes=schemes, miss_rates=miss_rates,
            outages_ms=outages_ms, duration_s=duration,
            base_seed=args.seed, fault_seed=args.fault_seed,
            runner=runner),
        lambda result: print(result.format()))


def cmd_metro(args: argparse.Namespace) -> int:
    """``repro metro``: the metro-scale fairness/capacity matrix."""
    from .harness.serialize import write_json_atomic
    from .metro import format_summary, resolve_set, run_metro
    mset = resolve_set("smoke" if args.smoke else args.set)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
        overrides["grid"] = {"seed": args.seed}
    if args.cells is not None:
        overrides.setdefault("grid", {})["n_cells"] = args.cells
    if args.hours is not None:
        overrides["hours"] = tuple(
            int(h) for h in args.hours.split(",") if h.strip())
    if args.hour_s is not None:
        overrides["hour_s"] = args.hour_s
    if args.shard_cells is not None:
        overrides["shard_cells"] = args.shard_cells
    if args.walkers is not None:
        overrides["walkers_per_shard"] = args.walkers
    if overrides:
        mset = mset.with_overrides(**overrides)

    def render(result) -> None:
        print(format_summary(result.matrix))
        write_json_atomic(result.matrix, args.out)
        print(f"wrote matrix ({len(result.matrix['cells'])} cells) to "
              f"{args.out}", file=sys.stderr)

    return _run_supervised(
        args, lambda runner: run_metro(mset, runner=runner), render)


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
    """``repro list``: schemes, experiments and metro scenario sets."""
    from .metro import metro_scenario_sets
    print("schemes:     " + ", ".join(sorted(SCHEMES)))
    print("experiments: " + ", ".join(EXPERIMENTS))
    print("metro sets:")
    for name, mset in sorted(metro_scenario_sets().items()):
        print(f"  {name:<14} {mset.grid.n_cells} cells — "
              f"{mset.description}")
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
    """Failure-isolation/deadline/checkpoint knobs for the long sweeps."""
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
    parser.add_argument("--checkpoint-dir", default=None,
                        metavar="DIR",
                        help="write crash-consistent mid-run snapshots "
                             "under DIR/<fingerprint>/ so killed or "
                             "preempted jobs, on a re-run, restore "
                             "their newest snapshot and finish "
                             "byte-identically")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="snapshot cadence in simulated subframes "
                             "(default 1000 = one simulated second)")


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    """``--fleet-*`` routing plus seeded fault injection for it."""
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
    group = parser.add_argument_group(
        "chaos injection (deterministic per --chaos-seed; each fault "
        "fires at most once per job fleet-wide, so sweeps converge to "
        "the chaos-free result)")
    group.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the fault plan (default 0)")
    group.add_argument("--chaos-kill", type=float, default=0.0,
                       metavar="P",
                       help="P(worker SIGKILLs itself mid-job)")
    group.add_argument("--chaos-kill-mid", type=float, default=0.0,
                       metavar="P",
                       help="P(worker SIGKILLs itself mid-simulation "
                            "at a deterministic subframe boundary; "
                            "needs --checkpoint-dir so the retry "
                            "resumes from the snapshot)")
    group.add_argument("--chaos-stall", type=float, default=0.0,
                       metavar="P",
                       help="P(worker stalls heartbeats mid-job)")
    group.add_argument("--chaos-stall-s", type=float, default=None,
                       metavar="S",
                       help="stall duration (default 2.5x the lease "
                            "TTL, enough to trip reclamation)")
    group.add_argument("--chaos-delay", type=float, default=0.0,
                       metavar="P",
                       help="P(worker holds its lease idle before "
                            "executing, with heartbeats)")
    group.add_argument("--chaos-delay-s", type=float, default=1.0,
                       metavar="S", help="claim-delay duration")
    group.add_argument("--chaos-dup", type=float, default=0.0,
                       metavar="P",
                       help="P(worker claims over a live lease -> "
                            "duplicate execution)")
    group.add_argument("--chaos-corrupt", type=float, default=0.0,
                       metavar="P",
                       help="P(worker corrupts the result envelope "
                            "it writes)")


def _add_cell_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sinr", type=float, default=18.0,
                        help="mean SINR in dB (default 18)")
    parser.add_argument("--carriers", type=int, default=2,
                        choices=(1, 2, 3),
                        help="aggregated carriers (default 2)")
    parser.add_argument("--busy", action="store_true",
                        help="busy cell with background users")
    parser.add_argument("--internet-mbps", type=float, default=1000.0,
                        help="wired-path rate (default: non-bottleneck)")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="flow duration in seconds (default 6)")
    parser.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PBE-CC reproduction (SIGCOMM 2020) simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one flow")
    p_run.add_argument("--scheme", default="pbe",
                       choices=sorted(SCHEMES))
    _add_cell_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare schemes")
    p_cmp.add_argument("--schemes", default="pbe,bbr,cubic")
    _add_cell_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("experiment",
                           help="run a paper table/figure driver")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--locations", type=int, default=4,
                       help="busy locations for sweep experiments")
    p_exp.add_argument("--duration", type=float, default=6.0)
    _add_exec_options(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep", help="run the stationary location sweep "
                      "(parallel, cacheable)")
    p_sweep.add_argument("--schemes", default="pbe,bbr",
                         help="comma-separated scheme list")
    p_sweep.add_argument("--busy", type=int, default=4,
                         help="busy locations (paper: 25)")
    p_sweep.add_argument("--idle", type=int, default=2,
                         help="idle locations (paper: 15)")
    p_sweep.add_argument("--duration", type=float, default=6.0,
                         help="flow duration in seconds")
    p_sweep.add_argument("--seed", type=int, default=100,
                         help="base seed of the location grid")
    p_sweep.add_argument("--view", default="summary",
                         choices=("summary", "table1", "fig12", "fig15"),
                         help="how to reduce the sweep for printing")
    p_sweep.add_argument("--save", default=None, metavar="FILE",
                         help="also write per-run JSON entries here")
    _add_exec_options(p_sweep)
    _add_supervision_options(p_sweep)
    _add_fleet_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_res = sub.add_parser(
        "resilience",
        help="fault-injection sweep: DCI miss-rate x outage grid")
    p_res.add_argument("--schemes", default="pbe,bbr",
                       help="comma-separated scheme list")
    p_res.add_argument("--miss", default="0,0.05,0.2",
                       help="comma-separated DCI miss probabilities")
    p_res.add_argument("--outage-ms", default="0,500",
                       help="comma-separated decoder outage durations")
    p_res.add_argument("--duration", type=float, default=6.0,
                       help="flow duration in seconds")
    p_res.add_argument("--seed", type=int, default=400,
                       help="scenario seed")
    p_res.add_argument("--fault-seed", type=int, default=7,
                       help="fault-schedule seed")
    p_res.add_argument("--smoke", action="store_true",
                       help="CI-sized grid (one scheme, short flows)")
    _add_exec_options(p_res)
    _add_supervision_options(p_res)
    p_res.set_defaults(func=cmd_resilience)

    p_metro = sub.add_parser(
        "metro", help="metro-scale scenario engine: run a named set "
                      "and write the per-cell fairness matrix")
    p_metro.add_argument("--set", default="metro-240",
                         help="scenario set name (see `repro list`; "
                              "default metro-240)")
    p_metro.add_argument("--smoke", action="store_true",
                         help="CI-sized run (the 'smoke' set)")
    p_metro.add_argument("--seed", type=int, default=None,
                         help="override the set's seed (grid layout, "
                              "populations, mobility, fleets)")
    p_metro.add_argument("--cells", type=int, default=None,
                         help="override the grid's carrier count")
    p_metro.add_argument("--hours", default=None,
                         help="comma-separated hours of day to "
                              "simulate (e.g. 3,9,14,21)")
    p_metro.add_argument("--hour-s", type=float, default=None,
                         metavar="S",
                         help="simulated seconds per diurnal hour")
    p_metro.add_argument("--shard-cells", type=int, default=None,
                         help="target cells per exec shard")
    p_metro.add_argument("--walkers", type=int, default=None,
                         help="override walkers per shard")
    p_metro.add_argument("--out", default="metro_matrix.json",
                         metavar="FILE",
                         help="matrix output path "
                              "(default metro_matrix.json)")
    _add_exec_options(p_metro)
    _add_supervision_options(p_metro)
    _add_fleet_options(p_metro)
    p_metro.set_defaults(func=cmd_metro)

    p_fleet = sub.add_parser(
        "fleet", help="distributed sweep fabric: join or observe a "
                      "shared-directory worker fleet (drive one "
                      "with `sweep --fleet-dir` / `metro "
                      "--fleet-dir`)")
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
                       "queue depth, live leases (with each job's "
                       "newest-checkpoint age), and per-worker "
                       "throughput from the liveness beacons")
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
