"""Figure 7: detected active users and the control-traffic filter.

On a busy tower the monitor sees ~15.8 active users on average inside
a 40 ms window (max 28), but most are parameter-update traffic: 68.2%
are active for exactly one subframe, 47.7% occupy exactly 4 PRBs.
After the ``Ta > 1, Pa > 4`` filter the average drops to ~1.3 with at
most ~7 genuine competitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...monitor.filters import ActiveUserFilter
from ...phy.carrier import CarrierConfig
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario


@dataclass
class Fig07Result:
    #: Per-40ms-window counts of all detected users.
    all_user_counts: list
    #: Per-window counts after the Ta/Pa filter.
    filtered_counts: list
    #: Per-user activity lengths (subframes) across the run.
    active_lengths: list

    @property
    def mean_detected(self) -> float:
        return float(np.mean(self.all_user_counts))

    @property
    def mean_filtered(self) -> float:
        return float(np.mean(self.filtered_counts))

    @property
    def frac_single_subframe(self) -> float:
        return float(np.mean(np.asarray(self.active_lengths) == 1))


def run_fig07(duration_s: float = 20.0, background_users: int = 2,
              seed: int = 23) -> Fig07Result:
    """Observe a busy cell through the monitor's user filter."""
    scenario = Scenario(
        name="fig07", carriers=[CarrierConfig(0, 20.0)],
        aggregated_cells=1, mean_sinr_db=18.0, busy=True,
        background_users=background_users, duration_s=duration_s,
        seed=seed)
    experiment = Experiment(scenario)
    user_filter = ActiveUserFilter(window_subframes=40)
    all_counts: list[int] = []
    filtered_counts: list[int] = []
    # PRB grants per RNTI over the run: its activity length, subframes.
    grants: dict[int, int] = {}

    def observe(record):
        user_filter.update(record)
        if record.subframe % 40 == 39:
            all_counts.append(len(user_filter.detected_users()))
            filtered_counts.append(len(user_filter.data_users()))
        for message in record.messages:
            if message.n_prbs > 0:
                grants[message.rnti] = grants.get(message.rnti, 0) + 1

    experiment.network.attach_monitor(0, observe)
    # One data flow of our own plus the scenario's background users.
    experiment.add_flow(FlowSpec(scheme="pbe"))
    experiment.run()

    return Fig07Result(all_counts, filtered_counts, list(grants.values()))
