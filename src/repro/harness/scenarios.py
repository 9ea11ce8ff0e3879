"""Experiment scenario definitions (§6.1's methodology).

A :class:`Scenario` bundles everything that made one of the paper's
measurement "locations": the set of component carriers, how many of
them the phone under test aggregates (Redmi 8 = 1, MIX3 = 2, S8 = 3),
signal strength (indoor/outdoor), cell business (busy daytime vs idle
late-night) and the wired-path properties toward the content server.

:func:`stationary_locations` generates the 40-location sweep of
§6.3.1: all combinations of indoor/outdoor, one/two/three aggregated
cells and busy/idle links (25 busy + 15 idle, as in Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cell.scheduler import POLICIES
from ..checks import require_int, require_real
from ..phy.carrier import CarrierConfig
from ..phy.channel import ChannelModel, StaticChannel

#: Default wired one-way delay, server -> base station (µs).
DEFAULT_INTERNET_DELAY_US = 18_000
#: Default uplink one-way delay, UE -> server (µs).
DEFAULT_UPLINK_DELAY_US = 20_000
#: A wired rate high enough never to bottleneck a cellular flow.
NON_BOTTLENECK_RATE_BPS = 1e9

#: Control-plane burst arrival rates (per subframe) for busy/idle cells,
#: calibrated so busy cells show the paper's ~15.8 detected users per
#: 40 ms window (Figure 7).
BUSY_CONTROL_ARRIVALS = 0.40
IDLE_CONTROL_ARRIVALS = 0.02

#: :class:`Scenario`'s integer fields with the least value each takes,
#: and its real fields that must be positive.
_INT_MINIMUMS = (("aggregated_cells", 1), ("background_users", 0),
                 ("internet_delay_us", 0), ("uplink_delay_us", 0),
                 ("uplink_batch_us", 1), ("internet_queue_packets", 1),
                 ("cqi_delay_subframes", 0), ("seed", 0))
_POSITIVE_REALS = ("background_on_s", "background_off_s",
                   "internet_rate_bps", "duration_s")


def default_carriers() -> list[CarrierConfig]:
    """The cell set around campus: one 20 MHz primary, two secondaries."""
    return [
        CarrierConfig(cell_id=0, bandwidth_mhz=20.0, frequency_ghz=1.94),
        CarrierConfig(cell_id=1, bandwidth_mhz=10.0, frequency_ghz=2.11),
        CarrierConfig(cell_id=2, bandwidth_mhz=10.0, frequency_ghz=0.87),
    ]


@dataclass
class Scenario:
    """One measurement location / network condition."""

    name: str
    carriers: list[CarrierConfig] = field(default_factory=default_carriers)
    #: Cells configured for the device under test (1, 2 or 3).
    aggregated_cells: int = 2
    mean_sinr_db: float = 20.0
    fading_std_db: float = 1.0
    busy: bool = False
    #: Background on-off data users on the primary cell (busy links).
    background_users: int = 0
    #: Per-on-period offered rate range of each background user, bits/s.
    #: Busy towers see short web-transfer-style sessions: sub-second
    #: bursts at tens of Mbit/s (this churn rate is what distinguishes
    #: explicit capacity tracking from BBR's windowed filters).
    background_rate_range: tuple = (8e6, 40e6)
    #: Mean on/off durations of background users, seconds.
    background_on_s: float = 0.5
    background_off_s: float = 1.0
    internet_rate_bps: float = NON_BOTTLENECK_RATE_BPS
    internet_delay_us: int = DEFAULT_INTERNET_DELAY_US
    uplink_delay_us: int = DEFAULT_UPLINK_DELAY_US
    #: LTE uplink scheduling-grant period: ACKs leave the phone in
    #: batches at this interval (sender-side ACK compression, §2).
    uplink_batch_us: int = 5_000
    internet_queue_packets: int = 1000
    #: Base-station PRB fairness policy (§7): "equal" or "equal_rate".
    scheduler_policy: str = "equal"
    #: CQI reporting delay, subframes (0 = oracle link adaptation).
    cqi_delay_subframes: int = 0
    duration_s: float = 8.0
    seed: int = 0
    #: Optional per-cell control-plane burst rates (``{cell_id: rate}``,
    #: int ids of ``carriers``).  When set it overrides the scenario-wide
    #: busy/idle rate, and a cell it leaves out gets none — metro grids
    #: mix busy hotspots and idle cells in one network.
    control_arrivals_by_cell: Optional[dict] = None

    def __post_init__(self) -> None:
        # Wire jobs rebuild scenarios from JSON: a bad field fails here.
        for name, minimum in _INT_MINIMUMS:
            value = getattr(self, name)
            require_int(name, value)
            if value < minimum:
                raise ValueError(f"{name} must be at least {minimum}, "
                                 f"got {value!r}")
        require_real("mean_sinr_db", self.mean_sinr_db)
        require_real("fading_std_db", self.fading_std_db)
        if self.fading_std_db < 0:
            raise ValueError("fading_std_db must be non-negative")
        for name in _POSITIVE_REALS:
            value = getattr(self, name)
            require_real(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.aggregated_cells > len(self.carriers):
            raise ValueError("aggregated_cells out of range")
        if self.scheduler_policy not in POLICIES:
            raise ValueError(f"scheduler_policy must be one of {POLICIES}, "
                             f"got {self.scheduler_policy!r}")
        rates = self.control_arrivals_by_cell
        if rates is not None:
            # The network looks a cell's rate up by int id and gives any
            # other cell 0.0, so a JSON string key or an unknown id would
            # silently run that cell without control traffic.
            name = "control_arrivals_by_cell"
            if not isinstance(rates, dict):
                raise ValueError(f"{name} must be a dict, got {rates!r}")
            cells = {c.cell_id for c in self.carriers}
            for cell, rate in rates.items():
                require_int(f"{name} key", cell)
                if cell not in cells:
                    raise ValueError(f"{name} names cell {cell!r}, which is "
                                     f"not one of carriers {sorted(cells)}")
                require_real(f"{name}[{cell}]", rate)
                if rate < 0:
                    raise ValueError(f"{name}[{cell}] must be non-negative, "
                                     f"got {rate!r}")

    @property
    def control_arrivals_per_subframe(self) -> "float | dict":
        if self.control_arrivals_by_cell is not None:
            return dict(self.control_arrivals_by_cell)
        return (BUSY_CONTROL_ARRIVALS if self.busy
                else IDLE_CONTROL_ARRIVALS)

    @property
    def device_cells(self) -> list[int]:
        """Cell ids configured for the device under test."""
        return [c.cell_id for c in self.carriers[:self.aggregated_cells]]

    def channel(self, seed_offset: int = 0) -> ChannelModel:
        """Default stationary channel for this location."""
        return StaticChannel(self.mean_sinr_db, self.fading_std_db,
                             seed=self.seed + seed_offset)


def stationary_locations(duration_s: float = 8.0,
                         base_seed: int = 100) -> list[Scenario]:
    """The §6.3.1 sweep: 40 locations, 25 busy + 15 idle.

    Covers all combinations of indoor/outdoor, 1/2/3 aggregated cells
    and busy/idle, with per-location SINR and competition diversity.
    """
    locations: list[Scenario] = []
    index = 0
    # (busy, count) chosen to land on the paper's 25 busy / 15 idle.
    for busy, count in ((True, 25), (False, 15)):
        for i in range(count):
            indoor = i % 2 == 0
            aggregated = 1 + (i % 3)
            sinr = (14.0 + (i * 1.7) % 8.0 if indoor
                    else 19.0 + (i * 2.3) % 8.0)
            locations.append(Scenario(
                name=(f"loc{index:02d}-{'busy' if busy else 'idle'}-"
                      f"{'indoor' if indoor else 'outdoor'}-"
                      f"{aggregated}cc"),
                aggregated_cells=aggregated,
                mean_sinr_db=sinr,
                fading_std_db=1.0 if indoor else 1.5,
                busy=busy,
                background_users=(4 + i % 4) if busy else 0,
                duration_s=duration_s,
                seed=base_seed + index))
            index += 1
    return locations


def representative_locations(duration_s: float = 8.0) -> dict[str, Scenario]:
    """The six drill-down locations of Figures 13-14."""
    return {
        "fig13a_1cc_indoor_busy": Scenario(
            name="1cc-indoor-busy", aggregated_cells=1, mean_sinr_db=16.0,
            busy=True, background_users=3, duration_s=duration_s, seed=201),
        "fig13b_2cc_indoor_busy": Scenario(
            name="2cc-indoor-busy", aggregated_cells=2, mean_sinr_db=17.0,
            busy=True, background_users=3, duration_s=duration_s, seed=202),
        "fig13c_3cc_indoor_busy": Scenario(
            name="3cc-indoor-busy", aggregated_cells=3, mean_sinr_db=18.0,
            busy=True, background_users=2, duration_s=duration_s, seed=203),
        "fig13d_3cc_indoor_idle": Scenario(
            name="3cc-indoor-idle", aggregated_cells=3, mean_sinr_db=21.0,
            busy=False, duration_s=duration_s, seed=204),
        "fig14a_2cc_outdoor_busy": Scenario(
            name="2cc-outdoor-busy", aggregated_cells=2, mean_sinr_db=22.0,
            fading_std_db=1.5, busy=True, background_users=3,
            duration_s=duration_s, seed=205),
        "fig14b_2cc_outdoor_idle": Scenario(
            name="2cc-outdoor-idle", aggregated_cells=2, mean_sinr_db=24.0,
            fading_std_db=1.5, busy=False, duration_s=duration_s, seed=206),
    }
