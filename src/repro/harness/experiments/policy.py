"""§7 fairness-policy ablation: equal-PRB vs equal-rate scheduling.

One strong user (cell centre, 24 dB) and one weak user (cell edge,
8 dB) run PBE-CC on one 20 MHz cell under each base-station policy:
``equal`` splits PRBs evenly, so throughput follows SINR;
``equal_rate`` gives the weak user more PRBs to equalize goodput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...phy.carrier import CarrierConfig
from ...phy.channel import StaticChannel
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario

DURATION_S = 4.0
SEED = 19


@dataclass
class PolicyResult:
    #: {policy: [strong, weak] average throughput, bit/s}
    tputs: dict = field(default_factory=dict)
    #: {policy: [strong, weak] mean PRBs per subframe}
    prbs: dict = field(default_factory=dict)


def run_fairness_policy() -> PolicyResult:
    """Run the strong/weak pair under both scheduler policies."""
    result = PolicyResult()
    for policy in ("equal", "equal_rate"):
        exp = Experiment(Scenario(
            name=f"policy-{policy}", carriers=[CarrierConfig(0, 20.0)],
            aggregated_cells=1, duration_s=DURATION_S, seed=SEED,
            scheduler_policy=policy))
        for rnti in (100, 101):
            exp.add_flow(FlowSpec(scheme="pbe", rnti=rnti,
                                  log_allocations=True))
        exp.network.user(100).channel = StaticChannel(24.0)
        exp.network.user(101).channel = StaticChannel(8.0)
        flows = exp.run()
        result.tputs[policy] = [f.summary.average_throughput_bps
                                for f in flows]
        result.prbs[policy] = [
            sum(p for _, _, p in (f.allocations or []))
            / (DURATION_S * 1_000) for f in flows]
    return result
