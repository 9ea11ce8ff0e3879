"""Figure 5: subframe-level tracking of allocations and idle PRBs.

Figure 5 is the paper's design-section walkthrough: three users share
a cell; when User 2's flow finishes, the others "immediately observe
idle PRBs in subframe seven and then share the available PRBs in
subframe eight"; a rate-limited User 3 cannot grow, so the rest of the
idle capacity converges to the unconstrained users.

End to end the sender sits one RTT behind the monitor, so the
reproduction measures the two latencies separately:

* **detection latency** — how long after the competitor's last grant
  the victim's *monitor* reports the larger capacity (subframe scale,
  bounded by the RTprop averaging window);
* **occupation latency** — how long until the victim's *delivered*
  rate reaches most of the freed capacity (a couple of RTTs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...net.link import Tap
from ...phy.carrier import CarrierConfig
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario

#: When the unconstrained competitor's flow ends, seconds.
COMPETITOR_END_S = 2.0
#: The rate-limited user's application rate, bits/s.
LIMITED_RATE_BPS = 5e6


@dataclass
class Fig05Result:
    detection_latency_ms: float
    occupation_latency_ms: float
    #: Rate-limited user's throughput before/after (should not change).
    limited_before_mbps: float
    limited_after_mbps: float


def run_fig05(duration_s: float = 4.0, seed: int = 51) -> Fig05Result:
    """Three users; the unconstrained competitor departs mid-run."""
    scenario = Scenario(name="fig05",
                        carriers=[CarrierConfig(0, 20.0)],
                        aggregated_cells=1, mean_sinr_db=18.0,
                        fading_std_db=0.0, duration_s=duration_s,
                        seed=seed)
    experiment = Experiment(scenario)
    victim = experiment.add_flow(FlowSpec(scheme="pbe", rnti=100))
    experiment.add_flow(FlowSpec(scheme="pbe", rnti=101,
                                 duration_s=COMPETITOR_END_S))
    limited = experiment.add_flow(FlowSpec(
        scheme="pbe", rnti=102, app_rate_bps=LIMITED_RATE_BPS))

    estimates: list[tuple[float, float]] = []
    client = victim.receiver
    client.uplink = Tap(client.uplink, lambda ack: estimates.append(
        (experiment.sim.now / 1e6, ack.feedback.target_rate_bps / 1e6)))
    results = experiment.run()

    end = COMPETITOR_END_S
    before = [r for t, r in estimates if end - 0.4 < t < end]
    baseline = float(np.mean(before))
    # The freed share roughly doubles the victim's capacity estimate;
    # detection = first estimate 30% above the pre-departure level.
    detection = next((t for t, r in estimates
                      if t > end and r > 1.3 * baseline), duration_s)

    stats = results[0].stats
    arrivals = np.asarray(stats.arrival_us) / 1e6
    sizes = np.asarray(stats.size_bits)
    delivered = []
    for lo in np.arange(0.0, duration_s, 0.05):
        mask = (arrivals >= lo) & (arrivals < lo + 0.05)
        delivered.append((lo, sizes[mask].sum() / 0.05 / 1e6))
    target = 1.5 * np.mean([v for t, v in delivered
                            if end - 0.4 < t < end])
    occupation = next((t for t, v in delivered
                       if t > end and v >= target), duration_s)

    limited_stats = results[2].stats
    larr = np.asarray(limited_stats.arrival_us) / 1e6
    lsz = np.asarray(limited_stats.size_bits)
    lim_before = lsz[(larr > end - 1.0) & (larr < end)].sum() / 1e6
    lim_after = lsz[(larr > end) & (larr < end + 1.0)].sum() / 1e6

    return Fig05Result(
        detection_latency_ms=(detection - end) * 1e3,
        occupation_latency_ms=(occupation - end) * 1e3,
        limited_before_mbps=lim_before,
        limited_after_mbps=lim_after)
