"""Named metro scenario sets (``python -m repro metro --set NAME``).

A :class:`MetroSet` bundles a grid spec with the simulation knobs one
metro run needs: which hours of the diurnal day to simulate, how much
wall-clock each hour is compressed to, shard sizing, the population
subsampling scale, walker churn, the coexistence fleet and the PRB
scheduler policy.  ``python -m repro list`` enumerates the registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..checks import require_int, require_real
from .grid import GridSpec


@dataclass(frozen=True)
class MetroSet:
    """One named metro configuration."""

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
        # CLI overrides land here: a NaN hour or a negative walker count
        # fails before any shard is planned, naming its field.
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

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["grid"] = self.grid.to_dict()
        out["hours"] = list(self.hours)
        out["fleet"] = list(self.fleet)
        return out

    def with_overrides(self, **kwargs) -> "MetroSet":
        if "grid" in kwargs and isinstance(kwargs["grid"], dict):
            kwargs["grid"] = dataclasses.replace(self.grid,
                                                 **kwargs["grid"])
        return dataclasses.replace(self, **kwargs)


def metro_scenario_sets() -> dict:
    """The registry of named metro sets."""
    sets = [
        MetroSet(
            name="smoke",
            description=("CI smoke: 108 mostly-idle cells, night + "
                         "peak hour, PBE/cubic fleets on ~5 hotspots"),
            grid=GridSpec(name="smoke", n_cells=108, seed=0),
            hours=(3, 14), hour_s=0.35, shard_cells=27,
            walkers_per_shard=2, fleet=("pbe", "cubic")),
        MetroSet(
            name="metro-240",
            description=("240 cells over four diurnal hours with "
                         "PBE/cubic/BBR fleets (the default matrix)"),
            grid=GridSpec(name="metro-240", n_cells=240, seed=0),
            hours=(3, 9, 14, 21), hour_s=0.5, shard_cells=30),
        MetroSet(
            name="downtown-999",
            description=("999 cells, dense hotspot core, single peak "
                         "hour — the issue's 1000-carrier ceiling"),
            grid=GridSpec(name="downtown-999", n_cells=999,
                          hotspot_fraction=0.08, seed=0),
            hours=(14,), hour_s=0.5, shard_cells=48,
            walkers_per_shard=4),
        MetroSet(
            name="pf-churn",
            description=("proportional-fair scheduler under walker "
                         "handover churn (stresses PF-state eviction)"),
            grid=GridSpec(name="pf-churn", n_cells=120, seed=0),
            hours=(9, 14), hour_s=0.5, shard_cells=30,
            walkers_per_shard=6, fleet=("pbe", "cubic"),
            scheduler_policy="proportional_fair"),
    ]
    return {s.name: s for s in sets}
