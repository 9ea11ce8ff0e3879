"""Figures 13-14: order-statistic drill-down at six locations.

For each representative location (indoor/outdoor × busy/idle × 1/2/3
aggregated cells) and each of the eight algorithms, the paper plots
the 10/25/50/75/90th percentiles of 100 ms-window throughput and
one-way delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import FlowSummary
from ..runner import run_flow
from ..scenarios import representative_locations

EIGHT_SCHEMES = ("pbe", "bbr", "cubic", "verus", "sprout", "copa",
                 "pcc", "vivace")


@dataclass
class Fig13Result:
    #: {location_key: {scheme: FlowSummary}}
    locations: dict

    def summary(self, location_key: str, scheme: str) -> FlowSummary:
        return self.locations[location_key][scheme]


def run_fig13_14(schemes: tuple = EIGHT_SCHEMES,
                 location_keys: tuple | None = None,
                 duration_s: float = 8.0) -> Fig13Result:
    """Run the drill-down grid (all six locations by default)."""
    reps = representative_locations(duration_s=duration_s)
    return Fig13Result({
        key: {scheme: run_flow(reps[key], scheme).summary
              for scheme in schemes}
        for key in location_keys or tuple(reps)})
