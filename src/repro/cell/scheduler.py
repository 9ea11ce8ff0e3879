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
call instead of being recomputed every water-filling round, and a
demand is a plain ``(rnti, demand_bits, bits_per_prb)`` triple.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class DemandEntry(NamedTuple):
    """One user's scheduling input for a subframe on one carrier.

    A named ``(rnti, demand_bits, bits_per_prb)`` triple: the base
    station hands :func:`allocate_prbs` plain tuples of the same shape.
    """

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
#: data rate grab larger bandwidth").
POLICIES = ("equal", "equal_rate")


def allocate_prbs(available_prbs: int,
                  demands: Iterable[tuple[int, int, int]],
                  rotation: int = 0,
                  policy: str = "equal") -> dict[int, int]:
    """Water-filling weighted-share PRB allocation.

    ``demands`` are ``(rnti, demand_bits, bits_per_prb)`` triples
    (:class:`DemandEntry` is one).  Returns ``{rnti: n_prbs}`` for
    users receiving a non-zero grant.  ``rotation`` rotates which users
    receive the integer-division remainder so per-subframe rounding
    does not bias long-run shares (callers pass the subframe index).
    """
    if available_prbs < 0:
        raise ValueError("available PRBs must be non-negative")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    grants: dict[int, int] = {}
    # Materialize per-user demand (here, DemandEntry.demand_prbs
    # inlined) and weight (below) once: both are pure functions of the
    # entry, and recomputing them per round was the dominant cost here.
    pending: list[int] = []       #: RNTIs of the users with a demand.
    rates: list[int] = []
    demand_prbs: list[int] = []
    for rnti, bits, rate in demands:
        if bits > 0 and rate > 0:
            pending.append(rnti)
            rates.append(rate)
            demand_prbs.append(-(-bits // rate))
    remaining = available_prbs
    if not pending or remaining == 0:
        return grants
    if len(pending) == 1:
        # Lone backlogged user: every policy hands it the whole carrier
        # (its weight share is 1), capped by its own demand — the
        # water-filling/remainder rounds below reduce to exactly this.
        grants[pending[0]] = min(demand_prbs[0], remaining)
        return grants

    # ``equal`` keeps weights as None: every user's share in a round is
    # the one float ``remaining * 1.0 / n``, computed once per round.
    if policy == "equal":
        weights = None
    else:  # equal_rate: share inversely proportional to per-PRB rate.
        weights = [1.0 / max(1, rate) for rate in rates]

    #: Indices (into ``pending``) of users still below their demand.
    active = list(range(len(pending)))

    # Water-filling: repeatedly satisfy users below their weighted
    # share, redistributing what they do not need.  A round compares
    # every user against the PRBs left at its start (``start``), grants
    # the satisfied in ``active`` order and keeps the rest; a demand is
    # at least one PRB, so a round that satisfied nobody left
    # ``remaining`` at ``start``.
    while active and remaining > 0:
        start = remaining
        if weights is None:
            share = start * 1.0 / len(active)
        else:
            total_weight = sum(weights[i] for i in active)
        still = []
        for i in active:
            need = demand_prbs[i]
            if (need <= share if weights is None
                    else need <= start * weights[i] / total_weight):
                grants[pending[i]] = need
                remaining -= need
            else:
                still.append(i)
        if remaining == start:
            break
        active = still

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
            grant = shares[k] + 1 if rank < leftover else shares[k]
            room = demand_prbs[i] - granted[i]
            if grant > room:
                grant = room
            if grant > 0:
                granted[i] += grant
                grants[pending[i]] = granted[i]
                remaining -= grant
                progress += grant
        if progress == 0 or remaining == 0:
            # Nothing movable (all shares truncated to zero), or
            # nothing left to move.
            break
        active = [i for i in active if granted[i] < demand_prbs[i]]

    return grants
