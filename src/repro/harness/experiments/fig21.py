"""Figure 21: fairness at the shared primary cell (§6.4).

Three phones share one primary cell; flows start at 0/10/20 s and end
at 60/50/40 s.  The figure plots each user's allocated primary-cell
PRBs (averaged over 50 subframes); fairness is quantified with Jain's
index over the windows where two and three flows overlap.

Variants: (a) three PBE flows, similar RTTs; (b) three PBE flows with
RTTs ~52/64/297 ms; (c) two PBE + one BBR; (d) two PBE + one CUBIC.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import jain_index
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario

#: Flow schedule: (start_s, end_s) per phone, scaled by `time_scale`.
SCHEDULE = ((0.0, 60.0), (10.0, 50.0), (20.0, 40.0))


@dataclass
class Fig21Variant:
    name: str
    schemes: tuple
    jain_2: float
    jain_3: float
    #: (time_s, prbs per flow) rows for plotting, 50-subframe averages.
    timeline: list


@dataclass
class Fig21Result:
    variants: list

    def variant(self, name: str) -> Fig21Variant:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(name)


def _run_variant(name: str, schemes: tuple, delays_us: tuple,
                 duration_s: float, time_scale: float,
                 seed: int) -> Fig21Variant:
    scenario = Scenario(name=f"fig21-{name}", aggregated_cells=1,
                        busy=False, mean_sinr_db=20.0,
                        duration_s=duration_s, seed=seed)
    experiment = Experiment(scenario)
    for i, (scheme, delay) in enumerate(zip(schemes, delays_us)):
        start, end = SCHEDULE[i]
        experiment.add_flow(FlowSpec(
            scheme=scheme, rnti=100 + i,
            start_s=start * time_scale,
            duration_s=(end - start) * time_scale,
            internet_delay_us=delay, log_allocations=True))
    results = experiment.run()

    def shares(lo_s, hi_s):
        out = []
        for r in results:
            history = r.allocations or []
            prbs = [p for sf, _, p in history
                    if lo_s * 1_000 <= sf < hi_s * 1_000]
            out.append(sum(prbs) / ((hi_s - lo_s) * 1_000))
        return out

    # Overlap windows (scaled): [10,20) two flows, [20,40) three.
    two = shares(12 * time_scale, 19 * time_scale)[:2]
    three = shares(24 * time_scale, 38 * time_scale)
    timeline = []
    step_ms = 50
    for lo in range(0, int(duration_s * 1_000), 500):
        row = [lo / 1_000.0]
        for r in results:
            history = r.allocations or []
            prbs = [p for sf, _, p in history if lo <= sf < lo + 500]
            row.append(sum(prbs) / 500)
        timeline.append(tuple(row))
    return Fig21Variant(
        name=name, schemes=schemes,
        jain_2=jain_index(two), jain_3=jain_index(three),
        timeline=timeline)


def run_fig21(time_scale: float = 1.0, seed: int = 47,
              variants: tuple = ("multi_user", "rtt", "vs_bbr",
                                 "vs_cubic")) -> Fig21Result:
    """Run the four fairness variants.

    ``time_scale < 1`` shrinks the paper's 60-second schedule
    proportionally (benchmarks use 0.25 to keep runtimes sane).
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    duration = 60.0 * time_scale
    similar = (18_000, 20_000, 22_000)
    spec = {
        "multi_user": (("pbe", "pbe", "pbe"), similar),
        # ~52/64/297 ms RTTs: one-way wired delays of ~16/22/138 ms.
        "rtt": (("pbe", "pbe", "pbe"), (16_000, 22_000, 138_000)),
        "vs_bbr": (("pbe", "pbe", "bbr"), similar),
        "vs_cubic": (("pbe", "pbe", "cubic"), similar),
    }
    out = []
    for name in variants:
        schemes, delays = spec[name]
        out.append(_run_variant(name, schemes, delays, duration,
                                time_scale, seed))
    return Fig21Result(out)
