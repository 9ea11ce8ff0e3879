"""Metro set: a grid spec plus the knobs of its shard simulations.

A :class:`MetroSet` bundles a grid spec with what each shard needs:
which hours of the diurnal day to simulate, how much wall-clock each
hour is compressed to, shard sizing, the population subsampling
scale, walker churn, the coexistence fleet and the PRB scheduler
policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..checks import require_int, require_real
from .grid import GridSpec


@dataclass(frozen=True)
class MetroSet:
    """One metro configuration."""

    name: str
    description: str
    grid: GridSpec
    #: Hours of the diurnal day to simulate (night/morning/peak/eve).
    hours: tuple = (3, 9, 14, 21)
    #: Simulated seconds per diurnal hour (time compression).
    hour_s: float = 0.5
    #: Target cells per shard (site-aligned; see MetroGrid.shards).
    shard_cells: int = 30
    #: Offered-to-simulated background-user subsampling factor.
    users_scale: float = 0.02
    max_users_per_cell: int = 6
    walkers_per_shard: int = 3
    #: Coexistence fleet planted on every busy cell.
    fleet: tuple = ("pbe", "cubic", "bbr")
    scheduler_policy: str = "equal"
    seed: int = 0

    def __post_init__(self) -> None:
        # A NaN hour or a negative walker count fails before any shard
        # is planned, naming its field.
        for name in ("hour_s", "users_scale"):
            value = getattr(self, name)
            require_real(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name, minimum in (("shard_cells", 1), ("walkers_per_shard", 0),
                              ("max_users_per_cell", 0)):
            value = getattr(self, name)
            require_int(name, value)
            if value < minimum:
                raise ValueError(f"{name} must be at least {minimum}, "
                                 f"got {value!r}")
        if not self.hours:
            raise ValueError("hours must name at least one hour")
        for hour in self.hours:
            require_int("hours", hour)
            if not 0 <= hour <= 23:
                raise ValueError(f"hours must lie in 0..23, got {hour!r}")
