"""CUBIC congestion control [Ha, Rhee, Xu — SIGOPS OSR 2008].

The Linux default and one of the paper's two in-kernel baselines.
Loss-based: the window grows as a cubic function of time since the last
loss, which over a deep per-user cellular buffer produces the paper's
observed behaviour — "highly unpredictable, alternating between high
throughput (but high delay) and low throughput (but low delay)".
"""

from __future__ import annotations

from typing import Optional

from ..net.units import US_PER_S
from .base import UNTIL_CALLBACK, AckContext, CongestionControl

#: CUBIC scaling constant (packets/s³).
CUBIC_C = 0.4
#: Multiplicative decrease factor.
CUBIC_BETA = 0.7
#: Initial congestion window, packets.
INITIAL_CWND = 10.0


class Cubic(CongestionControl):
    """CUBIC with fast convergence and the TCP-friendly region."""

    name = "cubic"

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND          # packets
        self.ssthresh = float("inf")      # packets
        self._w_max = 0.0
        self._k = 0.0
        self._epoch_start: Optional[int] = None
        self._w_est = 0.0                 # TCP-friendly estimate
        self._srtt_us = 100_000
        self._last_loss_us = -10**9

    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        if ctx.rtt_us > 0:
            self._srtt_us = round(0.875 * self._srtt_us + 0.125 * ctx.rtt_us)
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start
            return
        self._cubic_update(ctx.now_us)

    #: The inherited per-ACK loop, named here so ``bench/trace.py`` (which
    #: wraps only what a class defines itself) keeps its CUBIC span.
    on_ack_block = CongestionControl.on_ack_block

    def _cubic_update(self, now_us: int) -> None:
        if self._epoch_start is None:
            self._epoch_start = now_us
            if self.cwnd < self._w_max:
                self._k = ((self._w_max - self.cwnd) / CUBIC_C) ** (1 / 3)
            else:
                self._k = 0.0
                self._w_max = self.cwnd
            self._w_est = self.cwnd
        t = (now_us - self._epoch_start) / US_PER_S
        target = CUBIC_C * (t - self._k) ** 3 + self._w_max
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            self.cwnd += 0.01 / self.cwnd  # minimal growth near plateau
        # TCP-friendly region (standard AIMD estimate).
        rtt_s = self._srtt_us / US_PER_S
        self._w_est = (self._w_max * CUBIC_BETA
                       + 3 * (1 - CUBIC_BETA) / (1 + CUBIC_BETA)
                       * (t / rtt_s if rtt_s > 0 else 0.0))
        if self._w_est > self.cwnd:
            self.cwnd = self._w_est

    def on_loss(self, now_us: int, lost_bits: int,
                inflight_bits: int) -> None:
        # One window reduction per RTT, as in fast recovery.
        if now_us - self._last_loss_us < self._srtt_us:
            return
        self._last_loss_us = now_us
        self._epoch_start = None
        if self.cwnd < self._w_max:  # fast convergence
            self._w_max = self.cwnd * (2 - CUBIC_BETA) / 2
        else:
            self._w_max = self.cwnd
        self.cwnd = max(2.0, self.cwnd * CUBIC_BETA)
        self.ssthresh = self.cwnd

    def on_timeout(self, now_us: int) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2)
        self.cwnd = INITIAL_CWND
        self._epoch_start = None

    # ------------------------------------------------------------------
    def pacing_rate_bps(self, now_us: int) -> float:
        # Window-based: pace at 2·cwnd per RTT so ACK clocking dominates.
        return 2.0 * self.cwnd * self.mss_bits * US_PER_S / self._srtt_us

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        return self.cwnd * self.mss_bits

    def rate_valid_until_us(self, now_us: int) -> int:
        # Both answers read only cwnd and srtt, which only callbacks
        # write: the cubic law advances per ACK, not with the clock.
        return UNTIL_CALLBACK
