"""Fixed-offered-load sender (no congestion control).

Several of the paper's drill-down experiments drive the link with a
constant offered load rather than a congestion-controlled flow: the
40→6 Mbit/s carrier-aggregation timeline (Figure 2), the overhead
sweep (Figure 6a), the retransmission-delay study (Figure 8) and the
60 Mbit/s controlled competitor (Figures 18-19).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..net.units import US_PER_S
from .base import AckContext, CongestionControl


class FixedRate(CongestionControl):
    """Pace at a constant (or scheduled piecewise-constant) rate."""

    name = "cbr"

    def __init__(self, rate_bps: float = 10e6,
                 schedule: Optional[Sequence[tuple[float, float]]] = None
                 ) -> None:
        """``schedule`` is an optional ``(start_s, rate_bps)`` list that
        overrides ``rate_bps`` from each start time onward (sorted).
        """
        if rate_bps < 0:
            raise ValueError("rate must be non-negative")
        if schedule is not None:
            starts = [s for s, _ in schedule]
            if any(b <= a for a, b in zip(starts, starts[1:])):
                raise ValueError("schedule times must increase")
        self.rate_bps = rate_bps
        self.schedule = list(schedule) if schedule else None

    def on_ack(self, ctx: AckContext) -> None:
        pass  # open loop: ACKs are ignored

    def pacing_rate_bps(self, now_us: int) -> float:
        if self.schedule is None:
            return self.rate_bps
        rate = self.rate_bps
        for start_s, value in self.schedule:
            if now_us >= start_s * US_PER_S:
                rate = value
            else:
                break
        return rate

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        return None  # open loop: no inflight cap
