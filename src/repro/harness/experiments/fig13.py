"""Figures 13-14: order-statistic drill-down at six locations.

For each representative location (indoor/outdoor × busy/idle × 1/2/3
aggregated cells) and each of the eight algorithms, the paper plots
the 10/25/50/75/90th percentiles of 100 ms-window throughput and
one-way delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...exec import Job, is_failure, make_runner
from ..metrics import FlowSummary
from ..scenarios import representative_locations
from ..serialize import summary_from_dict

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
                 duration_s: float = 8.0,
                 runner=None) -> Fig13Result:
    """Run the drill-down grid (all six locations by default).

    The (location × scheme) grid is submitted as independent jobs
    through ``runner`` (default: ``make_runner()``; see
    :mod:`repro.exec`).  Every cell of the grid is reported, so a
    failed job raises a ``RuntimeError`` carrying its summary.
    """
    reps = representative_locations(duration_s=duration_s)
    keys = location_keys or tuple(reps)
    job_list = [Job(reps[key], scheme)
                for key in keys for scheme in schemes]
    payloads = (runner or make_runner()).run(job_list)
    for failure in filter(is_failure, payloads):
        raise RuntimeError(failure.summary())
    summaries = iter(summary_from_dict(p["summary"]) for p in payloads)
    return Fig13Result({key: {scheme: next(summaries) for scheme in schemes}
                        for key in keys})
