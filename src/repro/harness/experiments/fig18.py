"""Figures 18-19: controlled on-off competition (§6.3.3).

A 40-second flow shares an idle cell with a competitor that switches
on for 4 seconds out of every 8 at a fixed 60 Mbit/s offered load.
Figure 18 compares all schemes' overall delay/throughput; Figure 19
plots the victim's 200 ms throughput and per-packet delay around the
competition windows — PBE yields promptly (no queue) and re-grabs the
idle capacity the moment the competitor stops.  The reproduction
reduces Figure 19 to each victim's mean throughput while the
competitor is on versus off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...traces.workload import ScheduledDemand
from ..metrics import FlowSummary
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario
from .fig13 import EIGHT_SCHEMES

#: The competitor's on-off cycle, seconds.
PERIOD_S = 8.0
#: How long it is on in each cycle, seconds.
ON_S = 4.0
#: Its offered load while on, bits/s.
COMPETITOR_RATE_BPS = 60e6
#: When its first on span starts, seconds.
OFFSET_S = 4.0


@dataclass
class Fig18Result:
    summaries: dict
    #: For each scheme: mean tput while the competitor is on vs off.
    on_off_split: dict


def _competitor_on(t_s: float) -> bool:
    phase = (t_s - OFFSET_S) % PERIOD_S
    return t_s >= OFFSET_S and phase < ON_S


def run_fig18_19(schemes: tuple = EIGHT_SCHEMES,
                 duration_s: float = 40.0,
                 seed: int = 41) -> Fig18Result:
    """Run the controlled-competition experiment for each scheme."""
    summaries: dict[str, FlowSummary] = {}
    split = {}
    for scheme in schemes:
        scenario = Scenario(name="competition", aggregated_cells=2,
                            busy=False, duration_s=duration_s,
                            seed=seed)
        experiment = Experiment(scenario)
        # The paper's victim is the single-carrier Redmi 8; the MIX3
        # competitor aggregates two carriers.
        handle = experiment.add_flow(FlowSpec(
            scheme=scheme, cells=[scenario.carriers[0].cell_id]))
        demand = ScheduledDemand.on_off(
            period_s=PERIOD_S, on_s=ON_S, rate_bps=COMPETITOR_RATE_BPS,
            total_s=duration_s, offset_s=OFFSET_S)
        experiment.network.add_exogenous_user(
            900, [scenario.carriers[0].cell_id,
                  scenario.carriers[1].cell_id],
            scenario.channel(seed_offset=900), demand)
        result = experiment.run()[0]
        summaries[scheme] = result.summary

        arrivals = np.asarray(result.stats.arrival_us) / 1e6
        sizes = np.asarray(result.stats.size_bits)
        on_mask = np.array([_competitor_on(t) for t in arrivals])
        # Integrate the on/off spans over the whole run (1 ms grid).
        grid = np.arange(0.0, duration_s, 0.001)
        grid_on = np.array([_competitor_on(t) for t in grid])
        span_on = max(0.001, float(grid_on.sum()) * 0.001)
        span_off = max(0.001, duration_s - span_on)
        tput_on = sizes[on_mask].sum() / span_on / 1e6
        tput_off = sizes[~on_mask].sum() / span_off / 1e6
        split[scheme] = (float(tput_on), float(tput_off))
    return Fig18Result(summaries, split)
