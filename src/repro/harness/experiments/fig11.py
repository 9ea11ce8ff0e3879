"""Figure 11: cell-status micro-benchmark (§6.2).

(a) Distinct users communicating with a 20 MHz and a 10 MHz cell per
hour of the day: peak-hour averages of ~181/~97 users, maxima 233/135,
and the 10 MHz cell switched off between midnight and 3 am.

(b) The distribution of users' wireless physical data rates: most
users are low-rate (77.4%/71.9% below half the 1.8 Mbit/s/PRB peak).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...traces.cellactivity import paper_cells


@dataclass
class Fig11Result:
    #: {cell_name: [users in hour 0..23]}
    hourly_counts: dict
    #: {cell_name: sorted user physical rates, Mbit/s/PRB}
    user_rates: dict

    def peak_average(self, cell: str) -> float:
        """Mean users/hour over the paper's 12:00-20:00 peak window."""
        return float(np.mean(self.hourly_counts[cell][12:20]))

    def frac_below_half_peak(self, cell: str) -> float:
        rates = np.asarray(self.user_rates[cell])
        return float(np.mean(rates < 0.9))  # half of 1.8 Mbit/s/PRB


def run_fig11(seed: int = 31) -> Fig11Result:
    """Generate and measure the two cells' diurnal populations."""
    cells = paper_cells(seed=seed)
    hourly = {name: cell.hourly_user_counts()
              for name, cell in cells.items()}
    rates = {}
    for name, cell in cells.items():
        total_users = sum(hourly[name])
        rates[name] = sorted(cell.user_rates_mbps_per_prb(
            max(100, total_users)))
    return Fig11Result(hourly, rates)
