"""Carrier-aggregation activation policy (§3, Figure 2).

The cellular network activates a secondary cell for a user "as long as
such a user is consuming a large fraction of the bandwidth of the
serving cell(s)" (paper footnote 1 — queue build-up is *not* a
prerequisite), and deactivates aggregated cells "if and when the user
does not utilize the extra capacity".

This manager watches, per user, a sliding window of (a) the fraction of
the active cells' PRBs the user consumed and (b) whether the user still
had backlog after scheduling, and flips cells with a cooldown so the
activation/deactivation timeline looks like Figure 2: activation about
a hundred milliseconds into an overload, deactivation a few hundred
milliseconds after the load drops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..phy.carrier import AggregationState


#: Sliding window length, subframes.  Calibrated so activation lands
#: ~130 ms into an overload, like the paper's Figure 2 timeline.
WINDOW = 128
#: Activate the next cell when the user's mean consumed fraction of its
#: active cells exceeds this and it still has backlog.
ACTIVATION_FRACTION = 0.70
#: Deactivate the last cell when the user's traffic would fit into the
#: remaining cells at below this utilization.
DEACTIVATION_FRACTION = 0.55
#: Deactivation needs this many consecutive under-utilized subframes.
DEACTIVATION_HOLD = 256
#: Minimum subframes between any two switches for one user.
COOLDOWN = 100


@dataclass
class _UserCaState:
    history: deque = field(default_factory=deque)  # (used, total, backlogged)
    #: Rolling sums over ``history`` — maintained incrementally so the
    #: per-subframe observe() stays O(1) instead of re-summing the
    #: whole window.  Integer arithmetic keeps them exactly equal to
    #: ``sum(h[i] for h in history)``.
    used_sum: int = 0
    total_sum: int = 0
    backlog_frames: int = 0
    under_utilized_run: int = 0
    last_switch_subframe: int = -10**9
    activations: int = 0
    deactivations: int = 0


class CarrierAggregationManager:
    """Per-user secondary-cell activation state machine."""

    def __init__(self) -> None:
        self._users: dict[int, _UserCaState] = {}
        #: ``(subframe, rnti, "activate"|"deactivate", cell_id)`` log.
        self.events: list[tuple[int, int, str, int]] = []

    def state_for(self, rnti: int) -> _UserCaState:
        """The user's bookkeeping, built the first time it is asked for."""
        state = self._users.get(rnti)
        if state is None:
            state = self._users[rnti] = _UserCaState()
        return state

    def forget(self, rnti: int) -> None:
        """Drop a user's bookkeeping (departure, or a handover's restart)."""
        self._users.pop(rnti, None)

    def activations_for(self, rnti: int) -> int:
        """How many times a secondary cell was activated for this user
        (a read: an RNTI never observed gets no bookkeeping)."""
        state = self._users.get(rnti)
        return 0 if state is None else state.activations

    def observe(self, subframe: int, rnti: int, agg: AggregationState,
                used_prbs: int, active_total_prbs: int,
                backlogged: bool) -> str | None:
        """Feed one subframe of observations for one user.

        Returns ``"activate"`` / ``"deactivate"`` when the aggregation
        state was changed this subframe (the caller's ``agg`` is mutated
        in place), else ``None``.
        """
        state = self.state_for(rnti)
        state.history.append((used_prbs, active_total_prbs, backlogged))
        state.used_sum += used_prbs
        state.total_sum += active_total_prbs
        if backlogged:
            state.backlog_frames += 1
        if len(state.history) > WINDOW:
            old_used, old_total, old_backlogged = state.history.popleft()
            state.used_sum -= old_used
            state.total_sum -= old_total
            if old_backlogged:
                state.backlog_frames -= 1

        if subframe - state.last_switch_subframe < COOLDOWN:
            return None
        if len(state.history) < WINDOW:
            return None

        used = state.used_sum
        total = state.total_sum
        backlog_frames = state.backlog_frames
        fraction = used / total if total else 0.0

        if (agg.can_activate and fraction >= ACTIVATION_FRACTION
                and backlog_frames > WINDOW // 4):
            cell = agg.activate_next()
            state.last_switch_subframe = subframe
            state.under_utilized_run = 0
            state.activations += 1
            self.events.append((subframe, rnti, "activate", cell))
            return "activate"

        if agg.can_deactivate:
            # Would the user's current usage fit comfortably in one
            # fewer cell?  Compare mean used PRBs against the capacity
            # of the remaining cells.
            per_frame_used = used / len(state.history)
            remaining_prbs = (active_total_prbs
                              * (agg.active_count - 1) / agg.active_count)
            fits = (per_frame_used
                    <= DEACTIVATION_FRACTION * remaining_prbs)
            state.under_utilized_run = (
                state.under_utilized_run + 1 if fits else 0)
            if state.under_utilized_run >= DEACTIVATION_HOLD:
                cell = agg.deactivate_last()
                state.last_switch_subframe = subframe
                state.under_utilized_run = 0
                state.deactivations += 1
                self.events.append((subframe, rnti, "deactivate", cell))
                return "deactivate"
        return None
