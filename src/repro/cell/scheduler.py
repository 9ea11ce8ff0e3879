"""PRB scheduler: equal-share allocation with water-filling.

The paper observes (and relies on, §4.3/§6.4) that commercial cell
towers enforce a per-user fairness policy: backlogged users converge to
equal PRB shares, and a user that does not need its share leaves the
remainder to others (or idle).  This scheduler reproduces exactly that
observable behaviour:

1. HARQ retransmissions are served first (they reuse their original
   allocation size — the 8 ms retransmission rule of §3).
2. Control-plane (parameter-update) users get their few PRBs next.
3. Remaining PRBs are split between backlogged data users by
   water-filling: users whose demand is below the equal share get what
   they need, and the freed PRBs are re-split among the rest.  A
   rotating remainder keeps long-run shares exactly equal, and the
   remainder rounds repeat until every backlogged user is satisfied or
   the PRBs run out — a grant capped by a user's demand (or lost to
   integer truncation of the weighted shares) is redistributed, never
   dropped, which is what the §6.4 equal-share invariant (and the
   monitor's Eqn. 3 idle-PRB accounting) requires.

This function runs once per carrier per subframe — it is one of the
measured hot paths — so demands and weights are materialized once per
call instead of being recomputed every water-filling round.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class DemandEntry:
    """One user's scheduling input for a subframe on one carrier."""

    rnti: int
    demand_bits: int      #: Queue backlog the user wants served.
    bits_per_prb: int     #: Physical rate at the user's current MCS.

    @property
    def demand_prbs(self) -> int:
        """PRBs needed to drain the whole backlog this subframe."""
        if self.demand_bits <= 0 or self.bits_per_prb <= 0:
            return 0
        return -(-self.demand_bits // self.bits_per_prb)  # ceil division


#: Fairness policies (§7 "Fairness policy" discusses swapping these):
#: ``equal`` splits PRBs evenly between backlogged users (the paper's
#: observed commercial behaviour); ``equal_rate`` weights shares
#: inversely to each user's physical rate so everyone gets similar
#: *throughput* (the §7 example: "active users with lower physical
#: data rate grab larger bandwidth"); ``proportional_fair`` weights by
#: instantaneous rate over served-throughput EWMA (the textbook PF
#: scheduler), which needs the per-cell state in
#: :class:`ProportionalFairState`.
POLICIES = ("equal", "equal_rate", "proportional_fair")


class ProportionalFairState:
    """Per-cell served-throughput averages for the PF policy.

    The classic PF metric prioritizes ``r_i(t) / T_i(t)`` — each user's
    current achievable rate over an exponentially averaged history of
    served throughput — so users on channel upswings get scheduled and
    long-starved users age upward in priority.

    State is bounded: an RNTI that stays absent from ``known_rntis``
    for a full time constant is evicted, so day-long runs with user
    churn (Fig. 11's diurnal traces) do not grow without bound.  An
    evicted user that later returns starts over at the never-served
    priority, which is also what a real scheduler would do after the
    RNTI is released.
    """

    def __init__(self, time_constant_subframes: int = 100) -> None:
        if time_constant_subframes < 1:
            raise ValueError("time constant must be positive")
        self.time_constant = time_constant_subframes
        #: rnti -> served-throughput EWMA, bits per subframe.
        self._throughput: dict[int, float] = {}
        #: rnti -> index of the last record() that saw it attached.
        self._seen_at: dict[int, int] = {}
        self._records = 0

    def weight(self, demand: "DemandEntry") -> float:
        served = self._throughput.get(demand.rnti, 0.0)
        if served <= 0.0:
            return 1.0  # never served: highest relative priority
        return demand.bits_per_prb / served

    def record(self, served_bits: dict[int, int],
               known_rntis: set[int]) -> None:
        """Fold one subframe's served bits into the averages."""
        alpha = 1.0 / self.time_constant
        self._records += 1
        now = self._records
        throughput = self._throughput
        seen_at = self._seen_at
        for rnti in known_rntis | set(served_bits):
            old = throughput.get(rnti, 0.0)
            throughput[rnti] = ((1 - alpha) * old
                                + alpha * served_bits.get(rnti, 0))
            seen_at[rnti] = now
        # Amortized eviction sweep: once per time constant, drop every
        # RNTI that has been detached for at least a full time constant.
        if now % self.time_constant == 0 and len(seen_at) > len(known_rntis):
            cutoff = now - self.time_constant
            for rnti in [r for r, last in seen_at.items()
                         if last <= cutoff]:
                del seen_at[rnti]
                del throughput[rnti]


def allocate_prbs(available_prbs: int, demands: list[DemandEntry],
                  rotation: int = 0,
                  policy: str = "equal",
                  pf_state: "ProportionalFairState | None" = None)\
        -> dict[int, int]:
    """Water-filling weighted-share PRB allocation.

    Returns ``{rnti: n_prbs}`` for users receiving a non-zero grant.
    ``rotation`` rotates which users receive the integer-division
    remainder so per-subframe rounding does not bias long-run shares
    (callers pass the subframe index).  ``proportional_fair`` requires
    ``pf_state``.
    """
    if available_prbs < 0:
        raise ValueError("available PRBs must be non-negative")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    if policy == "proportional_fair" and pf_state is None:
        raise ValueError("proportional_fair needs a pf_state")
    grants: dict[int, int] = {}
    # Materialize per-user demand (here, DemandEntry.demand_prbs
    # inlined) and weight (below) once: both are pure functions of the
    # entry (and the frozen pf_state), and recomputing them per round
    # was the dominant cost here.
    pending: list[DemandEntry] = []
    demand_prbs: list[int] = []
    for d in demands:
        bits = d.demand_bits
        rate = d.bits_per_prb
        if bits > 0 and rate > 0:
            pending.append(d)
            demand_prbs.append(-(-bits // rate))
    remaining = available_prbs
    if not pending or remaining == 0:
        return grants
    if len(pending) == 1:
        # Lone backlogged user: every policy hands it the whole carrier
        # (its weight share is 1), capped by its own demand — the
        # water-filling/remainder rounds below reduce to exactly this.
        grants[pending[0].rnti] = min(demand_prbs[0], remaining)
        return grants

    # ``equal`` keeps weights as None: every user's share in a round is
    # the one float ``remaining * 1.0 / n``, computed once per round.
    if policy == "equal":
        weights = None
    elif policy == "proportional_fair":
        weights = [max(1e-9, pf_state.weight(d)) for d in pending]
    else:  # equal_rate: share inversely proportional to per-PRB rate.
        weights = [1.0 / max(1, d.bits_per_prb) for d in pending]

    #: Indices (into ``pending``) of users still below their demand.
    active = list(range(len(pending)))

    # Water-filling: repeatedly satisfy users below their weighted
    # share, redistributing what they do not need.
    while active and remaining > 0:
        if weights is None:
            share = remaining * 1.0 / len(active)
            satisfied = [i for i in active if demand_prbs[i] <= share]
        else:
            total_weight = sum(weights[i] for i in active)
            satisfied = [i for i in active
                         if demand_prbs[i]
                         <= remaining * weights[i] / total_weight]
        if not satisfied:
            break
        for i in satisfied:
            grants[pending[i].rnti] = demand_prbs[i]
            remaining -= demand_prbs[i]
        done = set(satisfied)
        active = [i for i in active if i not in done]

    # Remainder rounds: split what is left proportionally among the
    # still-backlogged users, rotating the integer-division extras.
    # One round used to be enough in theory, but a grant capped by the
    # user's remaining demand — or extras lost when float truncation
    # of the shares leaves more leftover PRBs than users — must be
    # redistributed, so the round repeats until nothing moves.
    granted = [0] * len(pending)
    while active and remaining > 0:
        n = len(active)
        if weights is None:
            shares = [int(remaining * 1.0 / n)] * n
        else:
            total_weight = sum(weights[i] for i in active)
            shares = [int(remaining * weights[i] / total_weight)
                      for i in active]
        leftover = remaining - sum(shares)
        # Rank r serves position (r - rotation) % n, so which users get
        # the +1 extras rotates with the subframe.
        progress = 0
        for rank in range(n):
            k = (rank - rotation) % n
            i = active[k]
            extra = 1 if rank < leftover else 0
            room = demand_prbs[i] - granted[i]
            grant = min(shares[k] + extra, room)
            if grant > 0:
                granted[i] += grant
                grants[pending[i].rnti] = granted[i]
                remaining -= grant
                progress += grant
        if progress == 0:
            break  # nothing movable (all shares truncated to zero)
        active = [i for i in active if granted[i] < demand_prbs[i]]

    return grants
