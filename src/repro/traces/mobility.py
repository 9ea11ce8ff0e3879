"""Mobility trajectories (§6.3.2, Figures 16-17).

The paper's mobility experiment moves the phone from an RSSI of
−85 dBm to −105 dBm over 13 seconds, back at a faster speed in about
4 seconds, then holds — a 40-second script.  :func:`paper_trajectory`
builds exactly that trace; :func:`random_walk_trajectory` provides a
generic stochastic alternative for wider testing.
"""

from __future__ import annotations

import numpy as np

from ..net.units import US_PER_S
from ..phy.channel import TraceChannel
from .seeds import derived_seed

#: The §6.3.2 script's start and end point RSSI, dBm.
STRONG_RSSI_DBM = -85.0
#: Its far point, dBm.
WEAK_RSSI_DBM = -105.0


def paper_trajectory(fading_std_db: float = 1.5,
                     time_scale: float = 1.0,
                     seed: int = 0) -> TraceChannel:
    """The §6.3.2 script: 13 s hold, 13 s out, 4 s back, 10 s hold.

    ``time_scale`` shrinks/stretches the whole 40-second script (the
    benchmarks run a compressed version to bound runtimes).
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    s = US_PER_S * time_scale
    waypoints = [
        (0, STRONG_RSSI_DBM),
        (int(13 * s), STRONG_RSSI_DBM),  # stationary at the start point
        (int(26 * s), WEAK_RSSI_DBM),    # slow move out
        (int(30 * s), STRONG_RSSI_DBM),  # fast move back
        (int(40 * s), STRONG_RSSI_DBM),  # stationary again
    ]
    return TraceChannel(waypoints, fading_std_db=fading_std_db, seed=seed)


def random_walk_trajectory(duration_s: float, mean_rssi_dbm: float = -95.0,
                           step_db: float = 3.0, interval_s: float = 2.0,
                           bounds_dbm: tuple[float, float] = (-113.0, -80.0),
                           fading_std_db: float = 1.5,
                           seed: int = 0) -> TraceChannel:
    """A bounded Gaussian random walk in RSSI.

    The walk and the fading process draw from two *derived* streams of
    the one explicit ``seed`` — passing the raw seed to both (as an
    earlier version did) made the fading noise replay the walk's draws.
    """
    if duration_s <= 0 or interval_s <= 0:
        raise ValueError("durations must be positive")
    rng = np.random.default_rng(derived_seed(seed, "random-walk", "walk"))
    lo, hi = bounds_dbm
    waypoints = []
    rssi = mean_rssi_dbm
    t = 0.0
    while t <= duration_s:
        waypoints.append((int(t * US_PER_S), rssi))
        rssi = float(np.clip(rssi + rng.normal(0.0, step_db), lo, hi))
        t += interval_s
    return TraceChannel(waypoints, fading_std_db=fading_std_db,
                        seed=derived_seed(seed, "random-walk", "fading"))
