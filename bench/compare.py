#!/usr/bin/env python3
"""Compare two sets of benchmark runs: moved, inside-noise or unresolved.

    python3 bench/compare.py A.json... -- B.json...

Each file is a run document (``run.py --out``) or a bundle of them
(``run.py --all --out``).  A is the parent (or the first set of one
commit), B the change.  Runs pair up by ``(workload, seed)``; ten or
more pairs per workload are needed before anything can read ``moved``.

Per workload and end-to-end metric the table gives each side's median
and quartiles and one verdict, by the rules of the metrics guide:

``moved``
    one side wins at least nine tenths of the pairs (ties count for
    neither) and the medians differ by more than the distance between
    A's own quartiles -- or B's median is worse than A's by more than
    the metric's bound;
``unresolved``
    not moved, but A's own spread is wider than the bound, so "no
    regression" cannot be claimed either (unless every run of B reads
    better than every run of A);
``inside-noise``
    everything else.

Digests, the two simulated metrics and every ``*.calls_per_sim_s`` are
deterministic, so for them each pair must agree exactly; disagreements
are listed.  Exit status 1 if a metric moved for the worse or an exact
value differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import END_TO_END, quartiles

#: Pairs needed before the nine-tenths rule may say ``moved``.
MIN_PAIRS = 10
#: End-to-end metrics that are simulated, hence exact per seed.
EXACT_METRICS = ("pbe_tput_mbps", "pbe_p95_delay_ms")


def load_runs(paths: list) -> list:
    runs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        runs += doc["runs"] if "runs" in doc else [doc]
    return runs


def verdict(a: list, b: list, pairs: list, better: str,
            bound: float) -> str:
    """Classify one metric; ``pairs`` are ``(a, b)`` of equal seed."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    worse_by = sign * (median_b - median_a) / abs(median_a)
    b_wins = sum(sign * (y - x) < 0 for x, y in pairs)
    a_wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if a_wins == b_wins == 0:
        return "inside-noise (identical)"
    direction = "worse" if worse_by > 0 else "better"
    decided = max(a_wins, b_wins) >= 0.9 * len(pairs) \
        and len(pairs) >= MIN_PAIRS
    if decided and abs(median_b - median_a) > q3 - q1:
        return f"moved ({direction})"
    if worse_by > bound:
        return "moved (worse, beyond bound)"
    b_dominates = all(sign * (y - x) < 0 for x in a for y in b)
    if (q3 - q1) / abs(median_a) > bound and not b_dominates:
        return "unresolved"
    return "inside-noise"


def compare(runs_a: list, runs_b: list) -> tuple:
    """``(table lines, exact-value disagreements, any moved worse)``."""
    def by_key(runs, trace):
        return {(r["workload"], r["seed"]): r
                for r in runs if r["trace"] == trace}

    lines, mismatches, regressed = [], [], False
    a0, b0 = by_key(runs_a, 0), by_key(runs_b, 0)
    workloads = list(dict.fromkeys(w for w, _ in a0))
    for workload in workloads:
        seeds = [s for w, s in a0 if w == workload and (w, s) in b0]
        if not seeds:
            continue
        lines.append(f"{workload}  ({len(seeds)} pairs)")
        for name, unit, better, bound in END_TO_END:
            pairs = [(a0[workload, s]["metrics"][name]["value"],
                      b0[workload, s]["metrics"][name]["value"])
                     for s in seeds]
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            word = verdict(a, b, pairs, better, bound)
            regressed |= word.startswith("moved (worse")
            lines.append(
                f"  {name:<18} A {am:>10.5g} [{a1:.5g}, {a3:.5g}]   "
                f"B {bm:>10.5g} [{b1:.5g}, {b3:.5g}] {unit:<12} "
                f"spread {abs(a3 - a1) / abs(am):.3f}/"
                f"{abs(b3 - b1) / abs(bm):.3f}  bound {bound:.2f}  {word}")

    for trace in (0, 1):
        a, b = by_key(runs_a, trace), by_key(runs_b, trace)
        for key in a.keys() & b.keys():
            ra, rb = a[key], b[key]
            tag = f"{key[0]} seed {key[1]} trace {trace}"
            if ra["seconds"] != rb["seconds"]:
                continue  # different repetition counts: not comparable
            if ra["digest"] != rb["digest"]:
                mismatches.append(f"{tag}: digest {ra['digest'][:16]} vs "
                                  f"{rb['digest'][:16]}")
            for name, entry in ra["metrics"].items():
                exact = (name in EXACT_METRICS
                         or name.endswith(".calls_per_sim_s"))
                other = rb["metrics"].get(name)
                if exact and other and entry["value"] != other["value"]:
                    mismatches.append(f"{tag}: {name} {entry['value']!r} "
                                      f"vs {other['value']!r}")
    return lines, sorted(mismatches), regressed


def main(argv: list) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    lines, mismatches, regressed = compare(load_runs(argv[:split]),
                                           load_runs(argv[split + 1:]))
    print("\n".join(lines))
    print(f"exact values (digests, simulated metrics, call counts): "
          f"{len(mismatches)} disagreements")
    for mismatch in mismatches:
        print(f"  {mismatch}")
    return 1 if regressed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
