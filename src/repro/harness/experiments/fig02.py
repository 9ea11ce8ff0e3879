"""Figure 2: secondary-cell activation and deactivation timeline.

A fixed 40 Mbit/s offered load exceeds the primary cell's capacity, so
the network activates a secondary cell (~0.13 s in), drains the queue
that built up meanwhile, and deactivates the secondary again once the
sender drops to 6 Mbit/s.  The figure plots per-cell allocated PRBs
and packet delay over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...phy.carrier import CarrierConfig
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario

#: The offered load before the switch, bits/s: above the 5 MHz
#: primary's capacity.
HIGH_RATE_BPS = 40e6
#: The offered load after it, bits/s: within the primary alone.
LOW_RATE_BPS = 6e6
#: When the sender drops to the low rate, seconds.
SWITCH_S = 2.0


@dataclass
class Fig02Result:
    #: (time_s, primary PRBs, secondary PRBs, mean delay ms) rows at
    #: 100 ms resolution.
    timeline: list
    activation_s: float | None
    deactivation_s: float | None
    peak_delay_ms: float
    steady_delay_ms: float


def run_fig02(duration_s: float = 4.0, seed: int = 3) -> Fig02Result:
    """Reproduce the Figure 2 experiment.

    The primary carrier is sized (5 MHz) so the high offered load
    exceeds it, forcing a secondary-cell activation.
    """
    scenario = Scenario(
        name="fig02",
        carriers=[CarrierConfig(0, 5.0), CarrierConfig(1, 10.0)],
        aggregated_cells=2, busy=False, mean_sinr_db=20.0,
        duration_s=duration_s, seed=seed)
    experiment = Experiment(scenario)
    handle = experiment.add_flow(FlowSpec(
        scheme="cbr", log_allocations=True,
        cc_kwargs={"rate_bps": HIGH_RATE_BPS,
                   "schedule": [(0.0, HIGH_RATE_BPS),
                                (SWITCH_S, LOW_RATE_BPS)]}))
    results = experiment.run()

    allocations = results[0].allocations or []
    stats = results[0].stats
    arrivals = np.asarray(stats.arrival_us)
    delays = np.asarray(stats.delay_us) / 1_000.0

    timeline = []
    for lo_ms in range(0, int(duration_s * 1_000), 100):
        hi_ms = lo_ms + 100
        per_cell = {0: 0, 1: 0}
        for subframe, cell_id, prbs in allocations:
            if lo_ms <= subframe < hi_ms:
                per_cell[cell_id] = per_cell.get(cell_id, 0) + prbs
        mask = (arrivals >= lo_ms * 1_000) & (arrivals < hi_ms * 1_000)
        delay = float(delays[mask].mean()) if mask.any() else 0.0
        timeline.append((lo_ms / 1_000.0, per_cell[0] // 100,
                         per_cell[1] // 100, delay))

    events = experiment.network.ca.events
    activation = next((sf / 1_000.0 for sf, _, kind, _ in events
                       if kind == "activate"), None)
    deactivation = next((sf / 1_000.0 for sf, _, kind, _ in events
                         if kind == "deactivate"), None)
    steady_mask = arrivals < SWITCH_S * 1e6
    return Fig02Result(
        timeline=timeline,
        activation_s=activation,
        deactivation_s=deactivation,
        peak_delay_ms=float(delays.max()) if delays.size else 0.0,
        steady_delay_ms=float(np.median(delays[steady_mask]))
        if steady_mask.any() else 0.0)
