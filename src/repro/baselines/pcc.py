"""PCC Allegro and PCC Vivace [Dong et al. — NSDI 2015 / NSDI 2018].

Both treat congestion control as online learning over *monitor
intervals* (MIs): send at a fixed rate for one MI, observe achieved
throughput / loss / RTT, compute a numeric utility, and move the rate
in the direction that empirically improves utility.

* Allegro's utility rewards throughput and sharply punishes loss above
  5% (sigmoid cliff).  It explores with ±ε paired trials.
* Vivace's utility additionally punishes *RTT gradients* — on a
  cellular link whose delay jumps in 8 ms HARQ steps (paper Figure 8),
  positive delay gradients appear at random, so Vivace keeps getting
  pushed off high rates.  That is the mechanism behind the significant
  under-utilization the PBE-CC paper observes for online-learning
  schemes (§2, §6.3).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..net.units import US_PER_S
from .base import AckContext, CongestionControl

#: Sending rate of the first monitor interval, bits/s.
INITIAL_RATE_BPS = 2.4e6
#: Exploration size ε for paired trials.
EPSILON = 0.05
#: Allegro's loss-cliff position and sigmoid steepness.
LOSS_THRESHOLD = 0.05
SIGMOID_ALPHA = 100.0
#: Vivace utility coefficients (from the NSDI'18 paper).
VIVACE_EXPONENT = 0.9
VIVACE_DELAY_COEFF = 900.0
VIVACE_LOSS_COEFF = 11.35


class _MonitorInterval:
    __slots__ = ("rate_bps", "start_us", "end_us", "acked_bits",
                 "lost_bits", "first_rtt_us", "last_rtt_us", "acks")

    def __init__(self, rate_bps: float, start_us: int, end_us: int) -> None:
        self.rate_bps = rate_bps
        self.start_us = start_us
        self.end_us = end_us
        self.acked_bits = 0
        self.lost_bits = 0
        self.first_rtt_us = 0
        self.last_rtt_us = 0
        self.acks = 0

    @property
    def throughput_bps(self) -> float:
        span = self.end_us - self.start_us
        return self.acked_bits * US_PER_S / span if span > 0 else 0.0

    @property
    def loss_rate(self) -> float:
        total = self.acked_bits + self.lost_bits
        return self.lost_bits / total if total > 0 else 0.0

    @property
    def rtt_gradient_s_per_s(self) -> float:
        """d(RTT)/dt across the interval, seconds per second."""
        span = self.end_us - self.start_us
        if span <= 0 or self.acks < 2:
            return 0.0
        return (self.last_rtt_us - self.first_rtt_us) / span


class _PccBase(CongestionControl):
    """Shared monitor-interval machinery."""

    #: Minimum MI duration, µs.
    MIN_MI_US = 10_000

    def __init__(self, seed: int = 0) -> None:
        self.rate_bps = INITIAL_RATE_BPS
        self._srtt_us = 100_000
        self._rng = np.random.default_rng(seed)
        self._mi: Optional[_MonitorInterval] = None
        self._history: list[tuple[float, float]] = []  # (rate, utility)

    # -- utility ------------------------------------------------------
    def utility(self, mi: _MonitorInterval) -> float:
        raise NotImplementedError

    def decide(self, rate: float, util: float) -> float:
        """Pick the next MI's rate given the finished MI's outcome."""
        raise NotImplementedError

    # -- MI plumbing ----------------------------------------------------
    def _mi_duration_us(self) -> int:
        return max(self.MIN_MI_US, int(1.5 * self._srtt_us))

    def _roll_interval(self, now_us: int) -> None:
        if self._mi is not None and now_us >= self._mi.end_us:
            util = self.utility(self._mi)
            self._history.append((self._mi.rate_bps, util))
            if len(self._history) > 32:
                self._history.pop(0)
            self.rate_bps = max(120_000.0,
                                self.decide(self._mi.rate_bps, util))
            self._mi = None
        if self._mi is None:
            start = now_us
            self._mi = _MonitorInterval(
                self.rate_bps, start, start + self._mi_duration_us())

    def on_ack(self, ctx: AckContext) -> None:
        if ctx.rtt_us > 0:
            self._srtt_us = round(0.875 * self._srtt_us + 0.125 * ctx.rtt_us)
        self._roll_interval(ctx.now_us)
        mi = self._mi
        mi.acked_bits += ctx.newly_acked_bits
        mi.acks += 1
        if ctx.rtt_us > 0:
            if mi.first_rtt_us == 0:
                mi.first_rtt_us = ctx.rtt_us
            mi.last_rtt_us = ctx.rtt_us

    def on_loss(self, now_us: int, lost_bits: int,
                inflight_bits: int) -> None:
        self._roll_interval(now_us)
        self._mi.lost_bits += lost_bits

    def on_timeout(self, now_us: int) -> None:
        self.rate_bps = max(120_000.0, self.rate_bps / 2)
        self._mi = None

    def pacing_rate_bps(self, now_us: int) -> float:
        self._roll_interval(now_us)
        return self._mi.rate_bps

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        return None  # purely rate-based


class PccAllegro(_PccBase):
    """PCC with the NSDI'15 loss-sigmoid utility and ±ε exploration."""

    name = "pcc"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._starting = True
        self._last_utility: Optional[float] = None
        self._last_loss = 0.0
        self._direction = 0
        self._trial_phase = 0
        self._streak = 0

    def utility(self, mi: _MonitorInterval) -> float:
        x = mi.throughput_bps / 1e6  # Mbit/s keeps magnitudes tame
        loss = mi.loss_rate
        self._last_loss = loss
        sigmoid = 1.0 / (1.0 + math.exp(
            min(50.0, max(-50.0, SIGMOID_ALPHA * (loss - LOSS_THRESHOLD)))))
        return x * (1 - loss) * sigmoid - x * loss

    def decide(self, rate: float, util: float) -> float:
        # Emergency brake: past the sigmoid's loss cliff the utility is
        # dominated by -x·L, so Allegro moves decisively downward.
        if self._last_loss > 2 * LOSS_THRESHOLD:
            self._starting = False
            self._last_utility = util
            self._streak = 0
            return rate * 0.5
        if self._starting:
            if self._last_utility is None or util > self._last_utility:
                self._last_utility = util
                return rate * 2.0
            self._starting = False
            self._last_utility = util
            return rate / 2.0
        # Paired ±ε trials: alternate directions, keep what helped;
        # confidence amplification grows the step on repeated wins.
        if self._trial_phase == 0:
            self._trial_phase = 1
            self._direction = 1 if self._rng.random() < 0.5 else -1
            self._last_utility = util
            return rate * (1 + self._direction * EPSILON)
        self._trial_phase = 0
        if self._last_utility is not None and util > self._last_utility:
            self._streak = min(self._streak + 1, 6)
            step = 1 + self._direction * (1 + self._streak) * EPSILON
        else:
            self._streak = 0
            step = 1 - self._direction * EPSILON
        self._last_utility = util
        return rate * step


class PccVivace(_PccBase):
    """PCC Vivace: gradient ascent on a delay-gradient-aware utility."""

    name = "vivace"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._base_rate = INITIAL_RATE_BPS
        self._pending: Optional[tuple[float, float]] = None  # (rate, util)
        self._step_mbps = 0.4

    def utility(self, mi: _MonitorInterval) -> float:
        x = mi.throughput_bps / 1e6
        gradient = max(0.0, mi.rtt_gradient_s_per_s)
        return (x ** VIVACE_EXPONENT
                - VIVACE_DELAY_COEFF * x * gradient
                - VIVACE_LOSS_COEFF * x * mi.loss_rate)

    def decide(self, rate: float, util: float) -> float:
        if self._pending is None:
            # First probe of the pair at base·(1+ε); next at base·(1−ε).
            self._pending = (rate, util)
            return self._base_rate * (1 - EPSILON)
        rate_up, util_up = self._pending
        self._pending = None
        # Gradient over the two probes, utility per Mbit/s.
        dr = (rate_up - rate) / 1e6
        gradient = (util_up - util) / dr if dr else 0.0
        delta = self._step_mbps * gradient
        delta = max(-5.0, min(5.0, delta))
        self._base_rate = max(120_000.0, self._base_rate + delta * 1e6)
        return self._base_rate * (1 + EPSILON)
