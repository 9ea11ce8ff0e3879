"""Metro cell-grid generation (ROADMAP item 1, §6.2/§6.4 at scale).

A metro deployment is a square lattice of *sites* (base-station
locations), each hosting a few component carriers drawn from the
operator's frequency/bandwidth tiers — a 20 MHz mid-band primary plus
lower-bandwidth secondaries, like the campus cell set of
``harness.scenarios.default_carriers`` repeated a few hundred times.
Sites near the grid centre ("downtown") are the busiest; a seeded
fraction of their primaries become *hotspots* that carry the fairness
fleets, while outlying quiet cells may switch off overnight like the
paper's 10 MHz cell.

Everything is a pure function of :class:`GridSpec`: the same spec
always lays out the identical grid.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..traces.seeds import derived_seed

#: (bandwidth_mhz, frequency_ghz) tiers; index 0 is the site primary.
CARRIER_TIERS = (
    (20.0, 1.94),
    (15.0, 2.11),
    (10.0, 2.11),
    (10.0, 0.87),
    (5.0, 0.87),
)


@dataclass(frozen=True)
class GridSpec:
    """Seeded description of one metro grid."""

    name: str = "metro"
    #: Total component carriers (the issue's 100-1000 range).
    n_cells: int = 120
    #: Carriers per site (every site gets one tier-0 primary).
    carriers_per_site: int = 3
    #: Fraction of cells promoted to busy hotspots (downtown first).
    hotspot_fraction: float = 0.05
    #: Peak hourly distinct-user range for quiet cells.
    quiet_peak_users: tuple = (4, 40)
    #: Peak hourly distinct-user range for hotspot cells (the paper's
    #: 20 MHz cell peaks at ~181-233 users/hour).
    hotspot_peak_users: tuple = (140, 240)
    #: Probability a quiet cell powers off between midnight and 3 am.
    off_hours_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("need at least one cell")
        if self.carriers_per_site < 1:
            raise ValueError("need at least one carrier per site")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")


@dataclass(frozen=True)
class MetroCell:
    """One component carrier of the grid."""

    cell_id: int
    site: int
    #: Site position on the lattice (row, col).
    row: int
    col: int
    bandwidth_mhz: float
    frequency_ghz: float
    #: Hotspot cells are busy: fairness fleets and high control load.
    busy: bool
    #: Peak hourly distinct users of the cell's diurnal trace.
    peak_users: int
    #: Hours of day (0-23) the cell is powered off.
    off_hours: tuple = ()

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["off_hours"] = list(self.off_hours)
        return out


@dataclass(frozen=True)
class MetroGrid:
    """A laid-out grid: the spec plus its concrete cells."""

    spec: GridSpec
    cells: tuple

    def shards(self, shard_cells: int) -> list[list[MetroCell]]:
        """Partition into site-aligned shards of ~``shard_cells`` cells.

        Cells of one site never straddle a shard boundary (walker
        mobility roams within a shard), and shards preserve cell-id
        order, so the concatenation of all shards is the whole grid.
        """
        if shard_cells < 1:
            raise ValueError("shard size must be positive")
        per_site = self.spec.carriers_per_site
        chunk = max(per_site, (shard_cells // per_site) * per_site)
        shards = [list(self.cells[i:i + chunk])
                  for i in range(0, len(self.cells), chunk)]
        return [shard for shard in shards if shard]


def build_grid(spec: GridSpec) -> MetroGrid:
    """Lay out the grid described by ``spec`` (deterministic)."""
    rng = np.random.default_rng(
        derived_seed(spec.seed, "metro-grid", spec.name))
    n_sites = math.ceil(spec.n_cells / spec.carriers_per_site)
    side = max(1, math.ceil(math.sqrt(n_sites)))
    centre = (side - 1) / 2.0

    # Downtown score per site: distance from the centre plus seeded
    # jitter — ranks which sites host the busy hotspots.
    scores = []
    for site in range(n_sites):
        row, col = divmod(site, side)
        dist = math.hypot(row - centre, col - centre)
        dist_max = math.hypot(centre, centre) or 1.0
        scores.append(1.0 - dist / dist_max
                      + float(rng.normal(0.0, 0.15)))

    n_hot = max(1, round(spec.n_cells * spec.hotspot_fraction))
    # Hotspots are site primaries, busiest sites first.
    hot_sites = set(sorted(range(n_sites), key=lambda s: -scores[s])
                    [:min(n_hot, n_sites)])

    cells = []
    cell_id = 0
    for site in range(n_sites):
        row, col = divmod(site, side)
        for k in range(spec.carriers_per_site):
            if cell_id >= spec.n_cells:
                break
            if k == 0:
                bw, freq = CARRIER_TIERS[0]
            else:
                tier = int(rng.integers(1, len(CARRIER_TIERS)))
                bw, freq = CARRIER_TIERS[tier]
            busy = k == 0 and site in hot_sites
            lo, hi = (spec.hotspot_peak_users if busy
                      else spec.quiet_peak_users)
            peak = int(rng.integers(lo, hi + 1))
            off_hours = ()
            if not busy and float(rng.random()) < spec.off_hours_fraction:
                off_hours = (0, 1, 2)
            cells.append(MetroCell(
                cell_id=cell_id, site=site, row=row, col=col,
                bandwidth_mhz=bw, frequency_ghz=freq, busy=busy,
                peak_users=peak, off_hours=off_hours))
            cell_id += 1
    return MetroGrid(spec=spec, cells=tuple(cells))
