"""Diurnal population plans: trace processes → simulated user counts.

Each metro cell owns a :class:`repro.traces.DiurnalCellActivity`
process seeded from the scenario seed and the cell id.  The *offered*
hourly user counts come straight from that trace (the paper's
Figure 11 measurement); the
*simulated* counts subsample them by ``users_scale`` (capped at
``max_users_per_cell``) so a thousand-cell grid with tens of thousands
of offered users stays simulable, while preserving the diurnal shape
and the busy/quiet contrast that drives idle-cell fast-forward.
"""

from __future__ import annotations

from ..traces.cellactivity import DiurnalCellActivity
from ..traces.seeds import derived_seed


def population_plan(cells: list[dict], hours: list[int], seed: int,
                    users_scale: float,
                    max_users_per_cell: int) -> dict:
    """Per-cell offered and simulated user counts for ``hours``.

    Returns ``{cell_id: {"offered": [...], "sim": [...]}}`` with one
    entry per selected hour, in hour order.
    """
    if not hours:
        raise ValueError("need at least one simulated hour")
    if any(not 0 <= h < 24 for h in hours):
        raise ValueError("hours must be in [0, 24)")
    if users_scale < 0:
        raise ValueError("users_scale must be non-negative")
    plan = {}
    for cell in cells:
        # The cell's diurnal trace process (independent per cell).
        day = DiurnalCellActivity(
            peak_users_per_hour=max(1, int(cell["peak_users"])),
            off_hours=tuple(cell.get("off_hours", ())),
            seed=derived_seed(seed, "metro-activity", cell["cell_id"]),
        ).hourly_user_counts()
        offered = [day[h] for h in hours]
        sim = [min(max_users_per_cell, round(n * users_scale))
               for n in offered]
        plan[cell["cell_id"]] = {"offered": offered, "sim": sim}
    return plan
