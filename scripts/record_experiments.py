#!/usr/bin/env python3
"""Record every paper claim at paper scale.

Runs each figure of :mod:`repro.harness.claims` once at its ``paper``
arguments (each driver at its default seed), writes
``results/paper.json`` and re-renders the generated blocks of
EXPERIMENTS.md and README.md from it.  Prints one line per claim.

The multi-job drivers go through :mod:`repro.exec`: ``--jobs N`` fans
their simulations out over worker processes, and ``--cache-dir DIR``
memoizes finished runs, so an interrupted pass, re-run, executes only
what never finished (a cache serves only the code that filled it); a
job that fails twice aborts the pass, so no record is partial.

Run:  PYTHONPATH=src python scripts/record_experiments.py --jobs 2
"""

import argparse
import json
import os
import subprocess
from pathlib import Path

from repro.exec import StderrReporter, make_runner
from repro.harness import claims

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int,
                        default=min(os.cpu_count() or 1, 8),
                        help="worker processes for the multi-job drivers "
                             "(default: one per CPU, capped at 8)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")
    args = parser.parse_args(argv)
    runs = claims.Runs("paper", make_runner(
        jobs=args.jobs, cache_dir=args.cache_dir,
        progress=StderrReporter(), strict=True))
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True).stdout.strip()
    data = claims.record(runs, commit)
    for e in data["claims"]:
        print(f"{e['id']:45s} {e['measured']!s:>22} {e['op']} "
              f"{e['bound']}  {'holds' if e['holds'] else 'FAILS'}")
    (ROOT / "results").mkdir(exist_ok=True)
    (ROOT / "results" / "paper.json").write_text(
        json.dumps(data, indent=1) + "\n")
    for doc, renders in claims.BLOCKS.items():
        path = ROOT / doc
        path.write_text(claims.regenerate(path.read_text(), renders, data))


if __name__ == "__main__":
    main()
