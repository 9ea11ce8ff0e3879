"""Diurnal cell-activity traces (micro-benchmark of §6.2, Figure 11).

The paper measures, over 24 hours, how many distinct users exchange
data with a 20 MHz and a 10 MHz cell each hour (peak-hour averages of
181 and 97, maxima of 233 and 135, and the 10 MHz cell switched off
between midnight and 3 am), and the distribution of the users'
physical data rates (77.4% / 71.9% of users below half the 1.8
Mbit/s/PRB maximum).  This module generates a synthetic population
with those properties, which the Figure 11 bench then measures.
"""

from __future__ import annotations

import numpy as np

from ..phy.mcs import bits_per_prb, sinr_to_mcs

#: Normalized diurnal shape (fraction of peak activity per hour 0-23).
DIURNAL_SHAPE = np.array([
    0.10, 0.07, 0.06, 0.06, 0.08, 0.12, 0.25, 0.45, 0.62, 0.72,
    0.80, 0.88, 0.95, 0.97, 1.00, 0.98, 0.96, 0.97, 0.95, 0.90,
    0.75, 0.55, 0.35, 0.18,
])


class DiurnalCellActivity:
    """Synthetic 24-hour user population for one cell."""

    def __init__(self, peak_users_per_hour: int = 190,
                 off_hours: tuple[int, ...] = (), seed: int = 0) -> None:
        if peak_users_per_hour < 1:
            raise ValueError("peak user count must be positive")
        if any(not 0 <= h < 24 for h in off_hours):
            raise ValueError("off hours must be in [0, 24)")
        self.peak_users_per_hour = peak_users_per_hour
        self.off_hours = set(off_hours)
        self._rng = np.random.default_rng(seed)

    def hourly_user_counts(self) -> list[int]:
        """Detected distinct users for each hour of the day."""
        counts = []
        for hour in range(24):
            if hour in self.off_hours:
                counts.append(0)
                continue
            mean = self.peak_users_per_hour * DIURNAL_SHAPE[hour]
            counts.append(int(self._rng.poisson(max(1.0, mean))))
        return counts

    def user_sinrs_db(self, n_users: int) -> np.ndarray:
        """SINR draws for a user population.

        A two-component mixture: most users sit at cell-median SINR
        (many are indoors or at cell edge), a minority are close-in
        high-SINR users — yielding the paper's observation that over
        70% of users run below half the maximum per-PRB rate.
        """
        if n_users < 0:
            raise ValueError("user count must be non-negative")
        edge = self._rng.normal(8.0, 6.0, size=n_users)
        near = self._rng.normal(24.0, 4.0, size=n_users)
        is_near = self._rng.random(n_users) < 0.25
        return np.where(is_near, near, edge)

    def user_rates_mbps_per_prb(self, n_users: int) -> np.ndarray:
        """Physical data rates (Mbit/s/PRB) for ``n_users`` (Fig. 11b)."""
        sinrs = self.user_sinrs_db(n_users)
        rates = np.empty(n_users)
        for i, sinr in enumerate(sinrs):
            mcs = sinr_to_mcs(float(sinr))
            streams = 2 if sinr >= 18.0 else 1
            # bits per PRB per 1 ms subframe -> Mbit/s per PRB.
            rates[i] = bits_per_prb(mcs, streams) / 1_000.0
        return rates


def paper_cells(seed: int = 0) -> dict[str, DiurnalCellActivity]:
    """The two §6.2 cells: a 20 MHz one and a 10 MHz one (off 0-3 am)."""
    return {
        "20MHz": DiurnalCellActivity(peak_users_per_hour=190, seed=seed),
        "10MHz": DiurnalCellActivity(peak_users_per_hour=100,
                                     off_hours=(0, 1, 2), seed=seed + 1),
    }
