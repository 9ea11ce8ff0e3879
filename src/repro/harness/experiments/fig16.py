"""Figures 16-17: performance under mobility (§6.3.2).

The phone follows the paper's scripted trajectory (hold at −85 dBm,
move to −105 dBm over 13 s, move back fast, hold).  Figure 16 compares
all eight algorithms' overall delay/throughput; Figure 17 plots PBE
and BBR's per-2-second medians, showing PBE tracking the capacity both
down and up while BBR over-reacts and queues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...traces.mobility import paper_trajectory
from ..metrics import FlowSummary
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario
from .fig13 import EIGHT_SCHEMES


@dataclass
class MobilityTimeline:
    """Per-2-second medians for one scheme (Figure 17)."""

    scheme: str
    interval_s: float
    throughput_mbps: list
    delay_ms: list


@dataclass
class Fig16Result:
    #: {scheme: FlowSummary} — Figure 16.
    summaries: dict
    #: Figure 17 timelines (PBE and BBR by default).
    timelines: list


def _timeline(scheme: str, stats, duration_s: float,
              interval_s: float) -> MobilityTimeline:
    arrivals = np.asarray(stats.arrival_us)
    delays = np.asarray(stats.delay_us) / 1_000.0
    sizes = np.asarray(stats.size_bits)
    tputs, meds = [], []
    step = int(interval_s * 1e6)
    for lo in range(0, int(duration_s * 1e6), step):
        mask = (arrivals >= lo) & (arrivals < lo + step)
        tputs.append(float(sizes[mask].sum() / interval_s / 1e6))
        meds.append(float(np.median(delays[mask])) if mask.any()
                    else 0.0)
    return MobilityTimeline(scheme, interval_s, tputs, meds)


def run_fig16_17(schemes: tuple = EIGHT_SCHEMES,
                 timeline_schemes: tuple = ("pbe", "bbr"),
                 duration_s: float = 40.0, interval_s: float = 2.0,
                 seed: int = 37) -> Fig16Result:
    """Run the mobility experiment (idle cell, scripted trajectory).

    ``duration_s != 40`` compresses/stretches the paper's 40-second
    trajectory proportionally.
    """
    scenario = Scenario(name="mobility", aggregated_cells=2,
                        busy=False, duration_s=duration_s, seed=seed)
    summaries: dict[str, FlowSummary] = {}
    timelines = []
    for scheme in schemes:
        channel = paper_trajectory(time_scale=duration_s / 40.0,
                                   seed=seed)
        experiment = Experiment(scenario)
        experiment.add_flow(FlowSpec(scheme=scheme, channel=channel))
        result = experiment.run()[0]
        summaries[scheme] = result.summary
        if scheme in timeline_schemes:
            timelines.append(_timeline(scheme, result.stats,
                                       duration_s, interval_s))
    return Fig16Result(summaries, timelines)
