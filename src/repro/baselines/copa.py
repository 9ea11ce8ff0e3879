"""Copa congestion control [Arun & Balakrishnan — NSDI 2018].

Delay-based: Copa steers its rate toward ``λ = 1/(δ·dq)`` where ``dq``
is the standing queueing delay (RTTstanding − RTTmin).  On cellular
links the 8 ms HARQ retransmission spikes (paper Figure 8) look like
standing queueing delay to Copa, so it backs off.  The paper reports an
~11× throughput gap against PBE-CC at slightly *lower* delay (Table 1's
0.8× rows).  This simulator's substrate shows a 2.1-2.6× gap.  The
5-7× it once showed came from one uplink tie-break: an ACK landing on
the 5 ms grant boundary waited a whole cycle.  ACK batching on its own
is not the mechanism (EXPERIMENTS.md, "Uplink flush rule").
"""

from __future__ import annotations

from typing import Optional

from ..net.units import US_PER_S
from .base import UNTIL_CALLBACK, AckContext, CongestionControl
from .windowed import WindowedMin

#: Copa's delta (1/packets) in its default mode: target rate 1/(δ·dq).
DELTA = 0.5
#: RTTmin filter window, µs.
RTT_MIN_WINDOW_US = 10 * US_PER_S


class Copa(CongestionControl):
    """Default-mode Copa (no TCP-competitive mode switching)."""

    name = "copa"

    def __init__(self) -> None:
        self.cwnd = 4.0  # packets
        self.velocity = 1.0
        self._direction = 0  # +1 up, -1 down
        self._rtt_min = WindowedMin(RTT_MIN_WINDOW_US)
        self._rtt_standing = WindowedMin(50_000)  # retuned to srtt/2
        self._srtt_us = 100_000
        self._round_start_us = 0

    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        if ctx.rtt_us <= 0:
            return
        now = ctx.now_us
        self._srtt_us = round(0.875 * self._srtt_us + 0.125 * ctx.rtt_us)
        self._rtt_min.update(now, ctx.rtt_us)
        self._rtt_standing.window_us = max(1_000, self._srtt_us // 2)
        self._rtt_standing.update(now, ctx.rtt_us)

        rtt_min = self._rtt_min.get() or ctx.rtt_us
        rtt_standing = self._rtt_standing.get() or ctx.rtt_us
        dq_us = max(0.0, rtt_standing - rtt_min)
        if dq_us <= 0:
            # No measurable standing queue: increase.
            self._step(now, +1)
            return
        # Target rate in packets/s, current rate from cwnd/RTTstanding.
        target_pps = US_PER_S / (DELTA * dq_us)
        current_pps = self.cwnd * US_PER_S / rtt_standing
        self._step(now, +1 if current_pps < target_pps else -1)

    #: The inherited per-ACK loop, named here so ``bench/trace.py`` (which
    #: wraps only what a class defines itself) keeps its Copa span.
    on_ack_block = CongestionControl.on_ack_block

    def _step(self, now_us: int, direction: int) -> None:
        # Velocity doubles after three round trips in the same direction.
        if direction == self._direction:
            if now_us - self._round_start_us >= 3 * self._srtt_us:
                self.velocity = min(self.velocity * 2, 1 << 16)
                self._round_start_us = now_us
        else:
            self.velocity = 1.0
            self._direction = direction
            self._round_start_us = now_us
        self.cwnd += direction * self.velocity / (DELTA * self.cwnd)
        self.cwnd = max(2.0, self.cwnd)

    def on_loss(self, now_us: int, lost_bits: int,
                inflight_bits: int) -> None:
        self.cwnd = max(2.0, self.cwnd / 2)
        self.velocity = 1.0
        self._direction = -1

    def on_timeout(self, now_us: int) -> None:
        self.cwnd = 2.0
        self.velocity = 1.0

    # ------------------------------------------------------------------
    def pacing_rate_bps(self, now_us: int) -> float:
        # Copa paces at 2·cwnd/RTTstanding to avoid bursts.
        rtt = self._rtt_standing.get() or self._srtt_us
        return 2.0 * self.cwnd * self.mss_bits * US_PER_S / max(rtt, 1_000)

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        return self.cwnd * self.mss_bits

    def rate_valid_until_us(self, now_us: int) -> int:
        # cwnd, srtt and the RTTstanding filter (read, never expired, by
        # the queries) are written only by callbacks.
        return UNTIL_CALLBACK
