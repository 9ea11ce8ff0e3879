"""Per-cell capacity estimation (Eqns. 1-4 of the paper).

For each activated cell ``i`` the mobile estimates its available
physical capacity as

    Cp_i = Rw_i · (Pa_i + Pidle_i / N_i)          (Eqn. 3 term)

and its fair share as

    Cf_i = Rw_i · Pcell_i / N_i                   (Eqns. 1-2)

where ``Rw`` is the user's own per-PRB physical rate, ``Pa`` its own
allocated PRBs, ``Pidle`` the cell's unallocated PRBs (counting *all*
users, Eqn. 4) and ``N`` the filtered data-user count.  All terms are
averaged over the most recent RTprop worth of subframes (§4.2.1) to
smooth the estimate.

``estimate()`` is called for every capacity feedback — a measured hot
path — so the sliding-window averages are served from ring buffers
with O(1) rolling integer sums instead of copying the sample deque and
re-summing the window on every call.  The integer fields (PRBs, rate)
use prefix-sum differences, which are exact; the float BER field is
summed chronologically on demand, so every returned figure is
bit-identical to the naive windowed average
(``tests/test_hotpath_regressions.py`` holds the equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from ..phy.dci import SubframeRecord
from .filters import ActiveUserFilter


@dataclass
class CellSample:
    """One subframe's raw measurements on one cell."""

    subframe: int
    own_prbs: int       #: Pa — PRBs allocated to this user.
    idle_prbs: int      #: Pidle — Eqn. 4.
    own_rate: int       #: Rw — bits per PRB at the user's current MCS.
    ber: float          #: SINR-estimated residual bit error rate.


@dataclass(slots=True)
class CellEstimate:
    """Averaged per-cell capacity figures."""

    cell_id: int
    physical_capacity: float   #: Cp_i, bits per subframe.
    fair_share: float          #: Cf_i, bits per subframe.
    idle: float                #: mean Pidle, PRBs.
    users: int                 #: N_i.
    mean_ber: float
    #: Fraction of the averaged window's subframes actually decoded
    #: (1.0 = gap-free; decode outages push it toward 0).
    coverage: float = 1.0


class CellCapacityEstimator:
    """Sliding-window capacity estimator for one component carrier."""

    #: Upper bound on the averaging window, subframes (RTprop can grow).
    MAX_WINDOW = 400

    def __init__(self, cell_id: int, total_prbs: int, own_rnti: int,
                 filter_control_users: bool = True) -> None:
        """``filter_control_users=False`` disables the §4.2.1 Ta/Pa
        filter: every detected user counts toward N (ablation knob —
        the paper shows this inflates N from ~1.3 to ~15 on busy
        cells)."""
        self.cell_id = cell_id
        self.total_prbs = total_prbs
        self.own_rnti = own_rnti
        self.filter_control_users = filter_control_users
        self.users = ActiveUserFilter()
        cap = self.MAX_WINDOW
        self._cap = cap
        #: Total samples ever folded in.
        self._count = 0
        # Ring buffers over the last MAX_WINDOW samples.
        self._subframes = [0] * cap
        self._bers = [0.0] * cap
        # Prefix sums C(k) = Σ field over samples 1..k, stored for the
        # last MAX_WINDOW+1 sample indices so any window w ≤ MAX_WINDOW
        # resolves as C(count) - C(count - w) in O(1) exact integer
        # arithmetic.
        self._cum_pa = [0] * (cap + 1)
        self._cum_idle = [0] * (cap + 1)
        self._cum_rate = [0] * (cap + 1)
        self.last_subframe = -1
        #: Last subframe in which this user itself received a grant.
        self.last_own_grant_subframe = -1

    def update(self, record: SubframeRecord, own_rate_hint: int,
               ber_hint: float) -> None:
        """Fold one decoded subframe in, scanning its messages once.

        ``own_rate_hint``/``ber_hint`` supply the user's own physical
        rate and BER from its local channel measurements (CQI reporting
        path) for subframes where it received no allocation — when it
        did, the decoded DCI's own MCS is authoritative.
        """
        if record.cell_id != self.cell_id:
            raise ValueError(
                f"record for cell {record.cell_id} fed to estimator "
                f"for cell {self.cell_id}")
        own = self.own_rnti
        own_prbs = 0
        own_rate = own_rate_hint
        allocated = 0
        allocations: dict[int, int] = {}
        for message in record.messages:
            prbs = message.n_prbs
            allocated += prbs
            if prbs > 0:
                rnti = message.rnti
                if rnti in allocations:
                    allocations[rnti] += prbs
                else:
                    allocations[rnti] = prbs
                if rnti == own:
                    own_prbs += prbs
                    own_rate = max(1, message.tbs_bits // prbs)
        idle = record.total_prbs - allocated
        if idle < 0:
            raise ValueError(
                f"over-allocated subframe {record.subframe} on cell "
                f"{self.cell_id}: {allocated}/{record.total_prbs}")
        subframe = record.subframe
        self.users.update_allocations(subframe, allocations)
        if own_prbs > 0:
            self.last_own_grant_subframe = subframe
        count = self._count
        cap = self._cap
        slot = count % cap
        self._subframes[slot] = subframe
        self._bers[slot] = ber_hint
        cum_slot = count % (cap + 1)
        next_slot = (count + 1) % (cap + 1)
        self._cum_pa[next_slot] = self._cum_pa[cum_slot] + own_prbs
        self._cum_idle[next_slot] = self._cum_idle[cum_slot] + idle
        self._cum_rate[next_slot] = self._cum_rate[cum_slot] + own_rate
        self._count = count + 1
        self.last_subframe = subframe

    # ------------------------------------------------------------------
    def samples(self) -> list[CellSample]:
        """The retained sample window, oldest first (introspection)."""
        count = self._count
        n = min(count, self._cap)
        out = []
        for k in range(count - n, count):
            cum, nxt = k % (self._cap + 1), (k + 1) % (self._cap + 1)
            out.append(CellSample(
                self._subframes[k % self._cap],
                self._cum_pa[nxt] - self._cum_pa[cum],
                self._cum_idle[nxt] - self._cum_idle[cum],
                self._cum_rate[nxt] - self._cum_rate[cum],
                self._bers[k % self._cap]))
        return out

    # ------------------------------------------------------------------
    def estimate(self, window_subframes: int) -> CellEstimate:
        """Average the most recent ``window_subframes`` samples (Eqn. 3).

        Every call returns a fresh :class:`CellEstimate`.
        """
        if window_subframes < 1:
            raise ValueError("window must be positive")
        count = self._count
        if count == 0:
            return CellEstimate(self.cell_id, 0.0, 0.0, 0.0, 1, 0.0,
                                coverage=0.0)
        cap = self._cap
        n = min(window_subframes, count, cap)
        cap1 = cap + 1
        lo, hi = (count - n) % cap1, count % cap1
        mean_pa = (self._cum_pa[hi] - self._cum_pa[lo]) / n
        mean_idle = (self._cum_idle[hi] - self._cum_idle[lo]) / n
        mean_rate = (self._cum_rate[hi] - self._cum_rate[lo]) / n
        # The BER field is a float: a prefix-sum difference would round
        # differently from the naive chronological sum, so it is folded
        # left-to-right over the window.  ``reduce(add, ..., 0.0)``
        # performs exactly the additions of a ``+=`` loop; ``sum()``
        # would not (it compensates float sums from CPython 3.12 on),
        # nor ``fsum``.
        bers = self._bers
        start = (count - n) % cap
        stop = start + n
        if stop <= cap:
            ber_sum = reduce(add, bers[start:stop], 0.0)
        else:  # the window wraps the ring: oldest part first
            ber_sum = reduce(add, bers[:stop - cap],
                             reduce(add, bers[start:], 0.0))
        mean_ber = ber_sum / n
        # Decode gaps widen the subframe span the n samples cover:
        # coverage = min(1.0, n / max(1, span)), without the calls.
        span = (self._subframes[(count - 1) % cap]
                - self._subframes[start] + 1)
        coverage = n / span if n < span else 1.0
        if self.filter_control_users:
            users = self.users.data_user_count(self.own_rnti)
        else:
            users = max(1, len(self.users.detected_users()
                               | {self.own_rnti}))
        physical = mean_rate * (mean_pa + mean_idle / users)
        fair = mean_rate * self.total_prbs / users
        return CellEstimate(
            self.cell_id, physical, fair, mean_idle, users, mean_ber,
            coverage)
