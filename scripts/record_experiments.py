#!/usr/bin/env python3
"""Run every table/figure experiment and record the outputs.

Writes the formatted result of each driver to stdout (pipe it into a
file for EXPERIMENTS.md).  Scale knobs sit between the benchmark
defaults and the paper's full setup so one pass finishes in well under
an hour on a laptop.

The multi-run drivers (the stationary sweep, Figures 13-14, the
ablations) go through :mod:`repro.exec`: ``--jobs N`` fans their
simulations out over worker processes, and ``--cache-dir DIR`` memoizes
completed runs so an interrupted recording pass resumes where it
stopped.  A cache serves only the code that filled it: results are
keyed by the package source (``code_id``, printed in the header), so
after any source change every run executes again.

Run:  python scripts/record_experiments.py --jobs 8 | tee experiments_raw.txt
"""

import argparse
import os
import time

from repro.exec import StderrReporter, make_runner
from repro.harness import experiments as exp
from repro.harness.serialize import code_id


def section(name):
    print(f"\n{'=' * 72}\n== {name}\n{'=' * 72}", flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="record all table/figure experiment outputs")
    parser.add_argument("--jobs", type=int,
                        default=min(os.cpu_count() or 1, 8),
                        help="worker processes for multi-run drivers "
                             "(default: one per CPU, capped at 8)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory "
                             "(an interrupted pass, re-run, executes "
                             "only what never finished; a cache serves "
                             "only the code that filled it)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job deadline in seconds for the long "
                             "sweeps (enforced concurrently)")
    parser.add_argument("--retries", type=int, default=1,
                        help="crash/timeout re-submissions with "
                             "jittered backoff (default 1)")
    parser.add_argument("--failure-budget", type=float, default=None,
                        help="abort a sweep once more than this "
                             "percentage of its jobs has failed")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    execution = {"jobs": args.jobs, "cache_dir": args.cache_dir,
                 "progress": StderrReporter()}
    # The long sweeps additionally run supervised: per-job deadlines,
    # retry backoff and a failure budget (failed configurations are
    # isolated and reported instead of aborting the recording pass).
    supervised = make_runner(
        **execution, timeout_s=args.timeout, retries=args.retries,
        failure_budget=(args.failure_budget / 100.0
                        if args.failure_budget is not None else None))
    t0 = time.time()
    print(f"code id: {code_id()}", flush=True)

    section("Stationary sweep (Table 1 / Figure 12 / Figure 15)")
    sweep = exp.run_stationary_sweep(
        schemes=("pbe", "bbr", "cubic", "verus", "copa"),
        n_busy=8, n_idle=5, duration_s=10.0, runner=supervised)
    for failure in sweep.failures:
        print(f"FAILED {failure.summary()}", flush=True)
    print(exp.table1_from_sweep(sweep).format())
    print()
    print(exp.fig12_from_sweep(sweep).format())
    print()
    print(exp.fig15_from_sweep(sweep).format())

    section("Figure 2: carrier activation/deactivation")
    print(exp.run_fig02().format())

    section("Figure 6: overhead and TBLER")
    print(exp.run_fig06().format())

    section("Figure 7: active-user filtering")
    print(exp.run_fig07(duration_s=20.0).format())

    section("Figure 8: retransmission delay quantization")
    print(exp.run_fig08().format())

    section("Figure 11: cell-status micro-benchmark")
    print(exp.run_fig11().format())

    section("Figures 13-14: six-location drill-down")
    print(exp.run_fig13_14(duration_s=8.0, **execution).format())

    section("Figures 16-17: mobility")
    print(exp.run_fig16_17(duration_s=24.0, interval_s=1.2).format())

    section("Figures 18-19: controlled competition")
    print(exp.run_fig18_19(duration_s=24.0).format())

    section("Figure 20: two connections, one device")
    print(exp.run_fig20(duration_s=10.0).format())

    section("Figure 21: fairness")
    print(exp.run_fig21(time_scale=0.34).format())

    section("Ablations")
    print(exp.run_ablation(duration_s=8.0, **execution).format())

    print(f"\ntotal wall time: {time.time() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main()
