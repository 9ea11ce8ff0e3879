"""Figure 8: one-way delay under increasing fixed offered loads.

Higher send rates mean bigger transport blocks, hence higher TB error
rates, so more packets pick up 8 ms HARQ retransmission delays — the
delay trace quantizes into 8 ms bands above the propagation floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...phy.carrier import CarrierConfig
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario


@dataclass
class Fig08Series:
    offered_mbps: float
    min_delay_ms: float
    #: Fraction delayed by roughly one HARQ cycle (6-12 ms above).
    one_retx_fraction: float
    #: Fraction delayed further (chained retransmissions/reordering).
    more_fraction: float


@dataclass
class Fig08Result:
    series: list


def run_fig08(loads_mbps: tuple = (6.0, 24.0, 36.0),
              sinr_db: float = 10.0, duration_s: float = 4.0,
              seed: int = 29) -> Fig08Result:
    """Run the three fixed-load delay traces of Figure 8."""
    series = []
    for load in loads_mbps:
        scenario = Scenario(
            name="fig08", carriers=[CarrierConfig(0, 20.0)],
            aggregated_cells=1, mean_sinr_db=sinr_db,
            fading_std_db=0.0, busy=False, duration_s=duration_s,
            seed=seed)
        experiment = Experiment(scenario)
        experiment.add_flow(FlowSpec(scheme="cbr",
                                     cc_kwargs={"rate_bps": load * 1e6}))
        result = experiment.run()[0]
        delays = np.asarray(result.stats.delay_us) / 1_000.0
        floor = float(delays.min())
        over = delays - floor
        series.append(Fig08Series(
            offered_mbps=load,
            min_delay_ms=floor,
            one_retx_fraction=float(np.mean((over >= 4.0)
                                            & (over < 12.0))),
            more_fraction=float(np.mean(over >= 12.0))))
    return Fig08Result(series)
