"""Trajectory-driven mobility: walkers that hand over between cells.

A *walker* is an exogenous user that roams the shard: it dwells on a
cell for a seeded exponential holding time, then hands over to a
neighbouring cell (same or adjacent site — metro handovers are short
hops, not teleports).  Each handover exercises the base station's
X2-style handover path — HARQ abandonment, scheduling interruption
and carrier re-aggregation — at metro churn rates.

The plan is pure data (a pure function of its seed), so a shard's
parameters determine its mobility exactly.
"""

from __future__ import annotations

import numpy as np

from ..checks import require_real
from ..traces.seeds import derived_seed

#: Shortest dwell on a cell before the next handover, seconds.
MIN_DWELL_S = 0.12


def walker_plan(cells: list[dict], duration_s: float, n_walkers: int,
                seed: int, mean_dwell_s: float = 0.0) -> list[dict]:
    """Deterministic mobility plans for ``n_walkers`` roaming users.

    Each plan is ``{"start_cell", "moves": [[t_s, cell_id], ...],
    "channel_seed", "demand_seed"}`` with strictly increasing move
    times inside ``(0, duration_s)``.  With fewer than two cells the
    walkers stay put (no moves).
    """
    if n_walkers < 0:
        raise ValueError("walker count must be non-negative")
    require_real("duration_s", duration_s)
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s!r}")
    if mean_dwell_s <= 0:
        mean_dwell_s = max(MIN_DWELL_S, duration_s / 5.0)

    cell_ids = [cell["cell_id"] for cell in cells]
    site_of = {cell["cell_id"]: cell["site"] for cell in cells}
    plans = []
    for w in range(n_walkers):
        rng = np.random.default_rng(
            derived_seed(seed, "metro-walker", w))
        here = int(cell_ids[int(rng.integers(len(cell_ids)))])
        plan = {
            "start_cell": here,
            "moves": [],
            "channel_seed": derived_seed(seed, "metro-walker", w, "rssi"),
            "demand_seed": derived_seed(seed, "metro-walker", w, "load"),
        }
        t = float(rng.exponential(mean_dwell_s))
        while len(cell_ids) > 1:
            t = max(t, MIN_DWELL_S)
            if t >= duration_s:
                break
            # Short hop: stay on this or an adjacent site when possible.
            near = [c for c in cell_ids
                    if c != here and abs(site_of[c] - site_of[here]) <= 1]
            pool = near or [c for c in cell_ids if c != here]
            here = int(pool[int(rng.integers(len(pool)))])
            plan["moves"].append([round(t, 6), here])
            t += float(rng.exponential(mean_dwell_s))
        plans.append(plan)
    return plans

