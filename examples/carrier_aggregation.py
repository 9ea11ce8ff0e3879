#!/usr/bin/env python3
"""Carrier aggregation: watch the network add and remove a cell.

Reproduces the paper's Figure 2: a fixed 40 Mbit/s offered load
overloads the 5 MHz primary carrier, so the network activates the
secondary carrier about 130 ms in; when the sender drops to 6 Mbit/s
the secondary is deactivated again.  The script prints the PRB/delay
timeline and the exact activation events.

Run:  python examples/carrier_aggregation.py
"""

from repro.harness.experiments import run_fig02
from repro.harness.report import format_table


def main() -> None:
    result = run_fig02()
    print(format_table(
        ["t (s)", "primary PRBs", "secondary PRBs", "delay (ms)"],
        [[f"{t:.1f}", p, s, d] for t, p, s, d in result.timeline],
        title="Per-cell PRBs and mean delay, 100 ms bins"))
    print()
    print(f"activation:   t = {result.activation_s:.3f} s "
          f"(paper: ~0.13 s)")
    print(f"deactivation: t = {result.deactivation_s:.3f} s "
          f"(rate dropped at t = 2 s)")
    print(f"queue peak:   {result.peak_delay_ms:.0f} ms, steady "
          f"{result.steady_delay_ms:.0f} ms")


if __name__ == "__main__":
    main()
