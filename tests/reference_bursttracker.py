"""BurstTracker-style bottleneck localization (§2 related work).

BurstTracker [Balasingam et al., MobiCom 2019] localizes a flow's
bottleneck from the downlink scheduler's behaviour: when the LTE link
is the bottleneck, the user is backlogged at the base station, so its
grants *fill* the capacity available to it; when the bottleneck is
upstream, the queue repeatedly runs dry — the user still gets
scheduled whenever a trickle of data arrives, but its grants are small
while the cell has PRBs to spare.

Per classification window we therefore measure, over the subframes in
which the user was scheduled, the share of *claimable* PRBs (its own
grant plus the cell's idle PRBs) that the grant actually consumed:

* share ≈ 1  →  backlogged  →  the wireless link is the bottleneck;
* share ≪ 1  →  starved     →  the bottleneck is upstream;
* never scheduled            →  idle.

This classifier runs on the same decoded control channel PBE-CC's
monitor consumes, giving an independent check of the client's
Dth-based bottleneck-state machine (§4.2.2): the two should agree.
Nothing under ``src/`` imports this module; ``tests/test_bursttracker.py``
runs it beside a PBE flow as an oracle shaped independently of
:class:`repro.core.client.PbeClient`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.dci import SubframeRecord

#: Default classification window (subframes = ms).
DEFAULT_WINDOW = 100
#: Mean claimed share above which the user counts as backlogged.
BACKLOGGED_SHARE = 0.8
#: Scheduled in at least this fraction of subframes to be non-idle.
MIN_DUTY = 0.05

WIRELESS_BOTTLENECK = "wireless"
UPSTREAM_BOTTLENECK = "upstream"
IDLE = "idle"


@dataclass
class BurstWindow:
    """One classification window's raw observations."""

    start_subframe: int
    scheduled: int        #: subframes with an own-RNTI grant
    total: int
    #: Sum over scheduled subframes of own/(own+idle) PRBs.
    claimed_share_sum: float
    longest_gap: int      #: longest unscheduled run inside the window

    @property
    def duty_cycle(self) -> float:
        return self.scheduled / self.total if self.total else 0.0

    @property
    def mean_claimed_share(self) -> float:
        """How much of the claimable capacity the user's grants took."""
        if self.scheduled == 0:
            return 0.0
        return self.claimed_share_sum / self.scheduled


class BurstTracker:
    """Per-user downlink bottleneck classifier from DCI observations."""

    def __init__(self, own_rnti: int,
                 window_subframes: int = DEFAULT_WINDOW) -> None:
        if window_subframes < 10:
            raise ValueError("window must be at least 10 subframes")
        self.own_rnti = own_rnti
        self.window_subframes = window_subframes
        self._count = 0
        self._scheduled = 0
        self._share_sum = 0.0
        self._gap = 0
        self._longest_gap = 0
        self._window_start = 0
        self.windows: list[BurstWindow] = []
        self.classifications: list[str] = []

    def update(self, record: SubframeRecord) -> None:
        """Fold one decoded subframe in; closes windows as they fill."""
        if self._count == 0:
            self._window_start = record.subframe
        own = record.prbs_for(self.own_rnti)
        self._count += 1
        if own > 0:
            self._scheduled += 1
            claimable = own + record.idle_prbs
            self._share_sum += own / claimable
            self._gap = 0
        else:
            self._gap += 1
            self._longest_gap = max(self._longest_gap, self._gap)
        if self._count == self.window_subframes:
            self._close_window()

    def _close_window(self) -> None:
        window = BurstWindow(self._window_start, self._scheduled,
                             self._count, self._share_sum,
                             self._longest_gap)
        self._count = 0
        self._scheduled = 0
        self._share_sum = 0.0
        self._gap = 0
        self._longest_gap = 0
        self.windows.append(window)
        self.classifications.append(self._classify(window))

    @staticmethod
    def _classify(window: BurstWindow) -> str:
        if window.duty_cycle < MIN_DUTY:
            return IDLE
        if window.mean_claimed_share >= BACKLOGGED_SHARE:
            return WIRELESS_BOTTLENECK
        return UPSTREAM_BOTTLENECK

    # ------------------------------------------------------------------
    def fraction(self, label: str) -> float:
        """Fraction of closed windows carrying ``label``."""
        if not self.classifications:
            return 0.0
        return (sum(1 for c in self.classifications if c == label)
                / len(self.classifications))

    def verdict(self) -> str:
        """Majority classification over non-idle windows."""
        active = [c for c in self.classifications if c != IDLE]
        if not active:
            return IDLE
        wireless = sum(1 for c in active if c == WIRELESS_BOTTLENECK)
        return (WIRELESS_BOTTLENECK if wireless >= len(active) / 2
                else UPSTREAM_BOTTLENECK)
