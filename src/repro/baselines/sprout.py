"""Sprout congestion control [Winstein, Sivaraman, Balakrishnan — NSDI 2013].

Sprout forecasts the cellular link's deliverable packet count over the
next 100 ms from observed packet arrivals, and keeps only as much in
flight as the *cautious* (5th-percentile) forecast allows, targeting a
hard per-packet delay bound.  This reimplementation keeps the published
control structure — tick-based rate estimation, a stochastic forecast
with an uncertainty band, a 100 ms delivery horizon — while replacing
the original's Cauchy-distributed brownian-motion model with a
Gaussian rate model (mean/variance EWMA over 20 ms ticks).

Behaviourally it lands where the paper's evaluation puts Sprout:
very low delay, substantially under-utilized capacity, and almost
never triggering carrier aggregation (Figure 15).
"""

from __future__ import annotations

import math
from typing import Optional

from ..net.units import US_PER_S
from .base import AckContext, CongestionControl

#: Forecast horizon (the Sprout paper's 100 ms target).
HORIZON_US = 100_000
#: Rate-estimation tick.
TICK_US = 20_000
#: Gaussian quantile for the cautious forecast (5th percentile).
CAUTION_QUANTILE = 1.645
#: EWMA factor per tick for the rate model.
ALPHA = 0.25


class Sprout(CongestionControl):
    """Cautious-forecast window control."""

    name = "sprout"

    def __init__(self) -> None:
        self._tick_start = 0
        self._tick_bits = 0
        self._mean_bps = 0.0
        self._var_bps2 = 0.0
        self._srtt_us = 100_000
        self.cwnd = 4.0

    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        now = ctx.now_us
        if ctx.rtt_us > 0:
            self._srtt_us = round(0.875 * self._srtt_us + 0.125 * ctx.rtt_us)
        self._tick_bits += ctx.newly_acked_bits
        if now - self._tick_start < TICK_US:
            return
        elapsed = now - self._tick_start
        sample_bps = self._tick_bits * US_PER_S / elapsed
        self._tick_start = now
        self._tick_bits = 0
        if self._mean_bps == 0.0:
            self._mean_bps = sample_bps
        else:
            error = sample_bps - self._mean_bps
            self._mean_bps += ALPHA * error
            self._var_bps2 = ((1 - ALPHA) * self._var_bps2
                              + ALPHA * error * error)
        self._update_window()

    def _update_window(self) -> None:
        std = math.sqrt(self._var_bps2)
        cautious_bps = max(0.0, self._mean_bps - CAUTION_QUANTILE * std)
        deliverable_bits = cautious_bps * HORIZON_US / US_PER_S
        self.cwnd = max(2.0, deliverable_bits / self.mss_bits)

    def on_loss(self, now_us: int, lost_bits: int,
                inflight_bits: int) -> None:
        self.cwnd = max(2.0, self.cwnd / 2)

    def on_timeout(self, now_us: int) -> None:
        self.cwnd = 2.0
        self._mean_bps /= 2

    # ------------------------------------------------------------------
    def pacing_rate_bps(self, now_us: int) -> float:
        return max(
            1.2e6,
            2.0 * self.cwnd * self.mss_bits * US_PER_S / self._srtt_us)

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        return self.cwnd * self.mss_bits
