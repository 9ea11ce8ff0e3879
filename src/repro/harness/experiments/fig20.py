"""Figure 20: one device, two concurrent connections (§6.3.4).

Two flows from the same phone to two different servers.  PBE-CC's
shared monitor splits the estimated capacity fairly, so both flows see
similar throughput; other schemes can end up badly unbalanced (the
paper measured BBR at 10 vs 35 Mbit/s).

Modelling note: the two connections terminate at one phone, i.e. one
RNTI at the base station.  We model the device as two co-located UEs
with consecutive RNTIs sharing the same channel — the cell scheduler's
per-user fairness then plays the role of the phone's internal
per-connection scheduling, and PBE's fair-share term (each monitor
sees the other connection as one more active user) matches the paper's
"fairly allocates the estimated capacity for two flows".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import jain_index
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario
from .fig13 import EIGHT_SCHEMES


@dataclass
class Fig20Result:
    #: {scheme: (FlowSummary flow1, FlowSummary flow2)}
    pairs: dict

    def balance(self, scheme: str) -> float:
        a, b = self.pairs[scheme]
        return jain_index([a.average_throughput_bps,
                           b.average_throughput_bps])


def run_fig20(schemes: tuple = EIGHT_SCHEMES,
              duration_s: float = 10.0, seed: int = 43) -> Fig20Result:
    """Run the two-connection experiment per scheme."""
    pairs = {}
    for scheme in schemes:
        scenario = Scenario(name="fig20", aggregated_cells=2,
                            busy=False, duration_s=duration_s,
                            seed=seed)
        experiment = Experiment(scenario)
        # Two servers at different distances (the paper used two AWS
        # regions).
        experiment.add_flow(FlowSpec(scheme=scheme, rnti=100,
                                     internet_delay_us=15_000))
        experiment.add_flow(FlowSpec(scheme=scheme, rnti=101,
                                     internet_delay_us=22_000))
        results = experiment.run()
        pairs[scheme] = (results[0].summary, results[1].summary)
    return Fig20Result(pairs)
