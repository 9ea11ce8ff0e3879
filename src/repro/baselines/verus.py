"""Verus congestion control [Zaki et al. — SIGCOMM 2015].

Designed for unpredictable cellular networks: instead of inferring
capacity, Verus continuously learns a *delay profile* — the empirical
relationship between sending window and observed end-to-end delay — and
each epoch picks the window that the profile maps to a target delay.
The target delay itself performs additive-increase when delay is near
the floor and backs off multiplicatively when the delay ratio grows.

This is a faithful-in-spirit reimplementation of the published control
loop (epoch timer, delay profile, δ₁/δ₂ increments, R ratio threshold,
loss halving); the curve-fitting details of the original are replaced
by a bucketed profile with EWMA updates.  It reproduces the behaviour
the PBE-CC paper measures: throughput comparable to BBR but with large,
oscillating delays (Figures 13-14, Table 1).
"""

from __future__ import annotations

from typing import Optional

from ..net.units import US_PER_S
from .base import AckContext, CongestionControl

#: Epoch length (the Verus paper uses 5 ms).
EPOCH_US = 5_000
#: Delay-ratio threshold R: above it, back the target delay off.
RATIO_THRESHOLD = 2.0
#: Additive target-delay increment δ₁ (µs) when the network looks idle.
DELTA_1_US = 1_000
#: Multiplicative target-delay decrease δ₂ when the ratio is exceeded.
DELTA_2 = 0.7
#: Delay-profile bucket width, µs.
BUCKET_US = 5_000
#: EWMA factor for profile updates.
PROFILE_ALPHA = 0.25


class Verus(CongestionControl):
    """Delay-profile-driven window control."""

    name = "verus"

    def __init__(self) -> None:
        self.cwnd = 10.0  # packets
        self._profile: dict[int, float] = {}  # delay bucket -> window
        self._d_min_us: Optional[int] = None
        self._d_est_us = 0.0
        self._target_delay_us = 0.0
        self._epoch_start = 0
        self._in_slow_start = True
        self._loss_backoff_until = 0

    # ------------------------------------------------------------------
    def _update_profile(self, delay_us: float, window: float) -> None:
        bucket = int(delay_us // BUCKET_US)
        old = self._profile.get(bucket)
        self._profile[bucket] = (window if old is None else
                                 (1 - PROFILE_ALPHA) * old
                                 + PROFILE_ALPHA * window)

    def _window_for_delay(self, delay_us: float) -> float:
        """Invert the profile: largest learned window at ≤ delay."""
        bucket = int(delay_us // BUCKET_US)
        candidates = [w for b, w in self._profile.items() if b <= bucket]
        if not candidates:
            return self.cwnd
        return max(candidates)

    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        if ctx.rtt_us <= 0:
            return
        now = ctx.now_us
        if self._d_min_us is None or ctx.rtt_us < self._d_min_us:
            self._d_min_us = ctx.rtt_us
        self._d_est_us = (0.875 * self._d_est_us + 0.125 * ctx.rtt_us
                          if self._d_est_us else float(ctx.rtt_us))
        self._update_profile(self._d_est_us, self.cwnd)

        if self._in_slow_start:
            self.cwnd += 1.0
            if (self._d_min_us is not None
                    and self._d_est_us > RATIO_THRESHOLD * self._d_min_us):
                self._in_slow_start = False
            return

        if now - self._epoch_start < EPOCH_US:
            return
        self._epoch_start = now
        ratio = (self._d_est_us / self._d_min_us
                 if self._d_min_us else 1.0)
        if ratio > RATIO_THRESHOLD:
            self._target_delay_us = self._d_est_us * DELTA_2
        else:
            self._target_delay_us = self._d_est_us + DELTA_1_US
        next_window = self._window_for_delay(self._target_delay_us)
        # Verus smooths window changes across the epoch.
        self.cwnd = max(2.0, 0.6 * self.cwnd + 0.4 * next_window + 1.0)

    def on_loss(self, now_us: int, lost_bits: int,
                inflight_bits: int) -> None:
        if now_us < self._loss_backoff_until:
            return
        self.cwnd = max(2.0, self.cwnd / 2)
        self._in_slow_start = False
        self._loss_backoff_until = now_us + 2 * EPOCH_US

    def on_timeout(self, now_us: int) -> None:
        self.cwnd = 2.0
        self._in_slow_start = False

    # ------------------------------------------------------------------
    def pacing_rate_bps(self, now_us: int) -> float:
        rtt = self._d_est_us or 100_000
        return 2.0 * self.cwnd * self.mss_bits * US_PER_S / rtt

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        return self.cwnd * self.mss_bits
