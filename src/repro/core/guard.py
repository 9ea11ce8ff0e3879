"""Misreported-feedback detection (§7, "Misreported congestion feedback").

PBE-CC trusts the mobile's capacity reports; a malicious client could
report a rate far above what the network supports and trigger a flood.
The paper proposes a server-side BBR-like throughput estimator — built
purely from send/ACK timestamps, with no client involvement — whose
achieved-throughput estimate is compared against the client's reported
capacity.  A client that *consistently* reports more than it ever
delivers is flagged, after which the sender caps its rate at the
measured throughput instead of the report.
"""

from __future__ import annotations

from ..baselines.windowed import WindowedMax
from ..net.units import US_PER_S

#: Reported/achieved ratio above which a window counts as suspicious.
SUSPICION_RATIO = 1.5
#: Consecutive suspicious windows before the client is flagged.
FLAG_AFTER_WINDOWS = 5
#: Evaluation window length, µs.
WINDOW_US = 1_000_000
#: Rate cap applied to a flagged client, relative to achieved rate.
CAPPED_HEADROOM = 1.2


class FeedbackGuard:
    """Server-side plausibility check on client capacity reports."""

    def __init__(self) -> None:
        self._achieved = WindowedMax(10 * US_PER_S)
        self._window_start = 0
        self._window_max_reported = 0.0
        self._suspicious_run = 0
        self.flagged = False

    @property
    def achieved_bps(self) -> float:
        """BBR-style delivered-throughput estimate (timestamps only)."""
        return self._achieved.get() or 0.0

    def observe(self, now_us: int, reported_bps: float,
                delivery_rate_bps: float) -> None:
        """Feed one ACK's report and delivery-rate sample."""
        if delivery_rate_bps > 0:
            self._achieved.update(now_us, delivery_rate_bps)
        self._window_max_reported = max(self._window_max_reported,
                                        reported_bps)
        if now_us - self._window_start < WINDOW_US:
            return
        self._evaluate()
        self._window_start = now_us
        self._window_max_reported = 0.0

    def _evaluate(self) -> None:
        achieved = self.achieved_bps
        if achieved <= 0:
            return
        if self._window_max_reported > SUSPICION_RATIO * achieved:
            self._suspicious_run += 1
            if self._suspicious_run >= FLAG_AFTER_WINDOWS:
                self.flagged = True
        else:
            self._suspicious_run = 0

    def cap_rate(self, requested_bps: float) -> float:
        """Rate actually granted: capped once the client is flagged."""
        if not self.flagged or self.achieved_bps <= 0:
            return requested_bps
        return min(requested_bps, CAPPED_HEADROOM * self.achieved_bps)
