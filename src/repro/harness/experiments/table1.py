"""Table 1: PBE-CC throughput speedup and delay reduction vs baselines.

The paper reports, separately over 25 busy and 15 idle links, the
ratios PBE-tput / baseline-tput, baseline-p95-delay / PBE-p95-delay
and baseline-avg-delay / PBE-avg-delay, for BBR, Verus and Copa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sweep import SweepResult

#: The paper's Table 1 numbers, for side-by-side comparison:
#: {(baseline, condition): (tput speedup, p95 reduction, avg reduction)}.
PAPER_TABLE1 = {
    ("bbr", "busy"): (1.04, 1.54, 1.39),
    ("bbr", "idle"): (1.10, 2.07, 1.84),
    ("verus", "busy"): (1.25, 3.97, 2.53),
    ("verus", "idle"): (2.01, 3.44, 2.67),
    ("copa", "busy"): (10.35, 0.80, 0.80),
    ("copa", "idle"): (12.94, 0.79, 0.82),
}


@dataclass
class Table1Row:
    baseline: str
    condition: str          #: "busy" or "idle"
    locations: int
    throughput_speedup: float
    p95_delay_reduction: float
    avg_delay_reduction: float

    @property
    def paper(self) -> tuple | None:
        return PAPER_TABLE1.get((self.baseline, self.condition))


@dataclass
class Table1Result:
    rows: list[Table1Row]

    def row(self, baseline: str, condition: str) -> Table1Row:
        for r in self.rows:
            if r.baseline == baseline and r.condition == condition:
                return r
        raise KeyError((baseline, condition))


def table1_from_sweep(sweep: SweepResult,
                      baselines: tuple[str, ...] = ("bbr", "verus",
                                                    "copa")) -> \
        Table1Result:
    """Reduce a stationary sweep to the paper's Table 1 ratios."""
    pbe = {e.location: e for e in sweep.for_scheme("pbe")}
    if not pbe:
        raise ValueError("sweep must include the 'pbe' scheme")
    rows = []
    for baseline in baselines:
        base_entries = sweep.for_scheme(baseline)
        if not base_entries:
            continue
        for condition in ("busy", "idle"):
            matched = [(pbe[e.location], e) for e in base_entries
                       if e.busy == (condition == "busy")
                       and e.location in pbe]
            if not matched:
                continue
            speedups, p95s, avgs = [], [], []
            for p, b in matched:
                if b.summary.average_throughput_bps > 0:
                    speedups.append(p.summary.average_throughput_bps
                                    / b.summary.average_throughput_bps)
                if p.summary.p95_delay_ms > 0:
                    p95s.append(b.summary.p95_delay_ms
                                / p.summary.p95_delay_ms)
                if p.summary.average_delay_ms > 0:
                    avgs.append(b.summary.average_delay_ms
                                / p.summary.average_delay_ms)
            rows.append(Table1Row(
                baseline=baseline, condition=condition,
                locations=len(matched),
                throughput_speedup=float(np.mean(speedups)),
                p95_delay_reduction=float(np.mean(p95s)),
                avg_delay_reduction=float(np.mean(avgs))))
    return Table1Result(rows)
