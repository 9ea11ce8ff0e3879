"""Active-user detection and control-traffic filtering (§4.2.1).

The monitor counts the users sharing each cell, but many detected users
are only receiving parameter updates (Figure 7): 68.2% are active for
exactly one subframe on exactly four PRBs.  Counting them in the
fair-share denominator ``N`` would starve real data flows, so the paper
filters on activity length and bandwidth: ``Ta > 1`` subframes and
``Pa > 4`` PRBs.  Idle-PRB accounting (Eqn. 4), by contrast, uses
*every* identified user.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..phy.dci import SubframeRecord

#: Default sliding-window length for user counting (the paper uses 40 ms).
DEFAULT_WINDOW_SUBFRAMES = 40
#: Filter thresholds from §4.2.1.
MIN_ACTIVE_SUBFRAMES = 2   # Ta > 1
MIN_AVG_PRBS = 5           # Pa > 4


@dataclass(slots=True)
class UserActivity:
    """Aggregate activity of one RNTI inside the sliding window."""

    active_subframes: int = 0
    total_prbs: int = 0

    @property
    def average_prbs(self) -> float:
        if self.active_subframes == 0:
            return 0.0
        return self.total_prbs / self.active_subframes


class ActiveUserFilter:
    """Sliding-window user tracker for one cell's control channel.

    The per-user aggregates are maintained *incrementally*: each
    decoded subframe adds its allocations on entry and subtracts them
    when it slides out of the window.  The queries — called once per
    capacity estimate, a measured hot path — then read a small
    ``{rnti: UserActivity}`` dict instead of re-scanning ``window ×
    users`` allocations.  All counters are integers, so the running
    aggregates are exactly what a full rescan would produce.
    """

    def __init__(self,
                 window_subframes: int = DEFAULT_WINDOW_SUBFRAMES) -> None:
        if window_subframes < 1:
            raise ValueError("window must be positive")
        self.window_subframes = window_subframes
        #: ``(subframe, {rnti: prbs})`` of each subframe in the window.
        self._window: deque[tuple[int, dict[int, int]]] = deque()
        #: Running per-user aggregates over the current window.
        self._activity: dict[int, UserActivity] = {}

    def update(self, record: SubframeRecord) -> None:
        """Fold one decoded subframe into the window."""
        allocations: dict[int, int] = {}
        for message in record.messages:
            if message.n_prbs > 0:
                allocations[message.rnti] = (
                    allocations.get(message.rnti, 0) + message.n_prbs)
        self.update_allocations(record.subframe, allocations)

    def update_allocations(self, subframe: int,
                           allocations: dict[int, int]) -> None:
        """Fold one subframe's prebuilt ``{rnti: prbs}`` map in.

        :meth:`repro.monitor.capacity.CellCapacityEstimator.update`
        builds the map in its one scan of the record's messages and
        hands it straight in instead of paying a second pass through
        :meth:`update`.
        """
        activity = self._activity
        for rnti, prbs in allocations.items():
            if rnti in activity:
                act = activity[rnti]
                act.active_subframes += 1
                act.total_prbs += prbs
            else:
                activity[rnti] = UserActivity(1, prbs)
        window = self._window
        window.append((subframe, allocations))
        if len(window) > self.window_subframes:
            for rnti, prbs in window.popleft()[1].items():
                act = activity[rnti]
                act.active_subframes -= 1
                act.total_prbs -= prbs
                if act.active_subframes == 0:
                    del activity[rnti]

    # ------------------------------------------------------------------
    def detected_users(self) -> set[int]:
        """Every RNTI seen in the window (Figure 7a, 'All users')."""
        return set(self._activity)

    def data_users(self, include: int | None = None) -> set[int]:
        """Users surviving the ``Ta > 1, Pa > 4`` filter.

        ``include`` forces one RNTI (the monitor's own) into the result:
        the mobile always counts itself as an active user when computing
        its fair share, even before its own flow ramps up.
        """
        users = {
            rnti for rnti, act in self._activity.items()
            if act.active_subframes >= MIN_ACTIVE_SUBFRAMES
            and act.average_prbs >= MIN_AVG_PRBS
        }
        if include is not None:
            users.add(include)
        return users

    def data_user_count(self, include: int | None = None) -> int:
        """The fair-share denominator ``N`` of Eqns. 1-3 (≥ 1).

        ``max(1, len(data_users(include)))`` without building the set:
        it runs once per capacity estimate.  ``Pa > 4`` is tested as
        ``total >= MIN_AVG_PRBS * subframes`` on the integer counts,
        which decides as ``total / subframes >= MIN_AVG_PRBS`` does for
        any count below 2**51 (DESIGN.md, "The monitor's per-record
        fold").
        """
        count = 0
        include_counted = include is None
        for rnti, act in self._activity.items():
            subframes = act.active_subframes
            if (subframes >= MIN_ACTIVE_SUBFRAMES
                    and act.total_prbs >= MIN_AVG_PRBS * subframes):
                count += 1
                if rnti == include:
                    include_counted = True
        return max(1, count if include_counted else count + 1)
