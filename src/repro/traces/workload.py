"""Synthetic demand sources for background/competing users.

These implement :class:`repro.cell.DemandSource` — per-subframe bit
arrivals into a base-station queue — and model the paper's two kinds of
competition: *controlled* (a fixed-rate flow switched on and off on a
schedule, §6.3.3) and *uncontrolled* (random background users of a busy
cell, §6.3.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cell.basestation import DemandSource


class ScheduledDemand(DemandSource):
    """Piecewise-constant offered load from a ``(start_s, rate_bps)`` list.

    The schedule must be sorted by start time; the rate before the first
    entry is zero.  Used for Figure 2's 40→6 Mbit/s step and the on-off
    competitor of Figures 18-19.
    """

    def __init__(self, schedule: Sequence[tuple[float, float]]) -> None:
        if not schedule:
            raise ValueError("schedule must be non-empty")
        starts = [s for s, _ in schedule]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("schedule times must be strictly increasing")
        self._starts_subframes = [int(s * 1_000) for s in starts]
        self._rates = [r for _, r in schedule]
        self._frac_bits = 0.0

    @classmethod
    def on_off(cls, period_s: float, on_s: float, rate_bps: float,
               total_s: float, offset_s: float = 0.0) -> "ScheduledDemand":
        """Periodic on-off load (the §6.3.3 controlled competitor)."""
        if on_s <= 0 or period_s <= on_s:
            raise ValueError("need 0 < on_s < period_s")
        schedule = []
        t = offset_s
        while t < total_s:
            schedule.append((t, rate_bps))
            schedule.append((t + on_s, 0.0))
            t += period_s
        return cls(schedule)

    def rate_at(self, subframe: int) -> float:
        rate = 0.0
        for start, value in zip(self._starts_subframes, self._rates):
            if subframe >= start:
                rate = value
            else:
                break
        return rate

    def bits(self, subframe: int) -> int:
        self._frac_bits += self.rate_at(subframe) / 1_000.0
        whole = int(self._frac_bits)
        self._frac_bits -= whole
        return whole


class OnOffRandomDemand(DemandSource):
    """Random on-off background user (uncontrolled busy-cell traffic).

    Exponentially distributed on/off durations; each on-period draws a
    fresh rate uniformly from ``rate_range_bps``.
    """

    def __init__(self, mean_on_s: float = 2.0, mean_off_s: float = 4.0,
                 rate_range_bps: tuple[float, float] = (2e6, 12e6),
                 seed: int = 0) -> None:
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("durations must be positive")
        lo, hi = rate_range_bps
        if not 0 <= lo <= hi:
            raise ValueError("invalid rate range")
        self._rng = np.random.default_rng(seed)
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.rate_range_bps = rate_range_bps
        self._on = self._rng.random() < (mean_on_s
                                         / (mean_on_s + mean_off_s))
        self._phase_left_subframes = self._draw_duration()
        self._rate_bps = self._draw_rate() if self._on else 0.0
        self._frac_bits = 0.0

    def _draw_duration(self) -> int:
        mean = self.mean_on_s if self._on else self.mean_off_s
        return max(1, int(self._rng.exponential(mean) * 1_000))

    def _draw_rate(self) -> float:
        lo, hi = self.rate_range_bps
        return float(self._rng.uniform(lo, hi))

    def bits(self, subframe: int) -> int:
        if self._phase_left_subframes <= 0:
            self._on = not self._on
            self._phase_left_subframes = self._draw_duration()
            self._rate_bps = self._draw_rate() if self._on else 0.0
        self._phase_left_subframes -= 1
        self._frac_bits += self._rate_bps / 1_000.0
        whole = int(self._frac_bits)
        self._frac_bits -= whole
        return whole
