#!/usr/bin/env python3
"""Fairness: three staggered flows sharing one primary cell.

Reproduces the paper's §6.4 setup (Figure 21): three phones share a
20 MHz primary cell; flows start at staggered times and end in reverse
order.  The script prints each flow's allocated PRBs over time and
Jain's fairness index during the overlap windows — including the RTT-
fairness variant with a 297 ms-RTT flow and the TCP-friendliness
variants against BBR and CUBIC.

Run:  python examples/fairness.py [time_scale]
      (time_scale 1.0 = the paper's full 60-second schedule)
"""

import sys

from repro.harness.experiments import run_fig21
from repro.harness.report import format_table


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    result = run_fig21(time_scale=scale)
    print(format_table(
        ["variant", "schemes", "jain2 %", "jain3 %"],
        [[v.name, "/".join(v.schemes), 100 * v.jain_2, 100 * v.jain_3]
         for v in result.variants],
        title="Jain's index over the two- and three-flow overlaps"))
    print()
    variant = result.variant("multi_user")
    rows = [[f"{t:.1f}"] + [f"{p:.1f}" for p in prbs]
            for t, *prbs in variant.timeline]
    print(format_table(
        ["t (s)", "flow 1 PRBs", "flow 2 PRBs", "flow 3 PRBs"], rows,
        title="Three PBE-CC flows: allocated primary-cell PRBs "
              "(cf. paper Figure 21a)"))


if __name__ == "__main__":
    main()
