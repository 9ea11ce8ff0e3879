"""Wireless channel models.

The paper's capacity fluctuations come from three sources (§1): shared-
medium competition, carrier (de)activation, and wireless channel quality
varying at the channel coherence time.  The competition and carrier
dynamics are modelled by the MAC layer (:mod:`repro.cell`); this module
models the third source — a per-user SINR process sampled once per
subframe, from which MCS, physical rate and bit error rate derive.

Models:

* :class:`StaticChannel` — constant SINR plus optional fast-fading
  jitter.  Stationary-location experiments (§6.3.1).
* :class:`GaussMarkovChannel` — AR(1) shadowing around a mean SINR, the
  usual Gauss-Markov mobility-fading abstraction.
* :class:`TraceChannel` — piecewise-linear RSSI trajectory, used for the
  scripted mobility experiments of Figures 16-17.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from ..checks import require_real
from ..net.units import SUBFRAME_US

#: Thermal noise floor plus typical interference margin for a 20 MHz
#: carrier, dBm.  RSSI −85 dBm maps to ≈26 dB SINR and −113 dBm to ≈−2 dB,
#: spanning the paper's measurement locations.
NOISE_FLOOR_DBM = -111.0


def rssi_to_sinr_db(rssi_dbm: float) -> float:
    """Convert a received signal strength to an SINR estimate."""
    return rssi_dbm - NOISE_FLOOR_DBM


class ChannelModel:
    """Base class: a subframe-sampled SINR process.

    The contract the engine's channel block cache relies on: a model's
    output is a function of the sampling time and the model's own RNG
    stream only, so a user's next 64 subframes can be drawn ahead of
    the clock.  A model therefore belongs to one live user
    (``CellularNetwork`` rejects a second), and a custom model needs
    only :meth:`sinr_db` — the base :meth:`sinr_block` loops over it.
    """

    def sinr_db(self, now_us: int) -> float:  # pragma: no cover
        """SINR (dB) seen by the user at simulation time ``now_us``."""
        raise NotImplementedError

    def sinr_block(self, start_us: int, n_subframes: int) -> np.ndarray:
        """SINR for ``n_subframes`` consecutive subframes, as one array.

        Equivalent — including the random stream consumed — to calling
        :meth:`sinr_db` once per subframe at ``start_us``,
        ``start_us + SUBFRAME_US``, …; the engine's channel block cache
        relies on the bitwise identity of the two.  Subclasses override this
        with a vectorized implementation; the base class falls back to
        the scalar calls so custom channel models stay correct.
        """
        return np.array([self.sinr_db(start_us + k * SUBFRAME_US)
                         for k in range(n_subframes)], dtype=np.float64)


class StaticChannel(ChannelModel):
    """Constant mean SINR with i.i.d. Gaussian fast-fading jitter."""

    def __init__(self, mean_sinr_db: float, fading_std_db: float = 0.0,
                 seed: int = 0) -> None:
        require_real("mean_sinr_db", mean_sinr_db)
        require_real("fading_std_db", fading_std_db)
        if fading_std_db < 0:
            raise ValueError("fading_std_db must be non-negative")
        self.mean_sinr_db = mean_sinr_db
        self.fading_std_db = fading_std_db
        self._rng = np.random.default_rng(seed)

    def sinr_db(self, now_us: int) -> float:
        if self.fading_std_db == 0.0:
            return self.mean_sinr_db
        return self.mean_sinr_db + self._rng.normal(0.0, self.fading_std_db)

    def sinr_block(self, start_us: int, n_subframes: int) -> np.ndarray:
        # One block draw consumes the generator stream identically to n
        # scalar draws (numpy fills arrays with sequential variates).
        if self.fading_std_db == 0.0:
            return np.full(n_subframes, self.mean_sinr_db)
        return self.mean_sinr_db + self._rng.normal(
            0.0, self.fading_std_db, n_subframes)


class GaussMarkovChannel(ChannelModel):
    """AR(1) shadowing process: ``s[k+1] = a·s[k] + (1-a)·noise``.

    ``coherence_us`` controls how often the shadowing state advances —
    the wireless channel coherence time of §1, which can be milliseconds
    under vehicular mobility.
    """

    def __init__(self, mean_sinr_db: float, std_db: float = 3.0,
                 memory: float = 0.95, coherence_us: int = 10_000,
                 seed: int = 0) -> None:
        require_real("mean_sinr_db", mean_sinr_db)
        require_real("std_db", std_db)
        if std_db < 0:
            raise ValueError("std_db must be non-negative")
        if not 0.0 <= memory < 1.0:
            raise ValueError("memory must be in [0, 1)")
        if coherence_us <= 0:
            raise ValueError("coherence time must be positive")
        self.mean_sinr_db = mean_sinr_db
        self.std_db = std_db
        self.memory = memory
        self.coherence_us = coherence_us
        self._rng = np.random.default_rng(seed)
        self._state = 0.0
        self._last_step = -1

    def sinr_db(self, now_us: int) -> float:
        step = now_us // self.coherence_us
        while self._last_step < step:
            innovation = self._rng.normal(0.0, self.std_db)
            self._state = (self.memory * self._state
                           + math.sqrt(1 - self.memory ** 2) * innovation)
            self._last_step += 1
        return self.mean_sinr_db + self._state

    def sinr_block(self, start_us: int, n_subframes: int) -> np.ndarray:
        if n_subframes == 0:
            return np.empty(0, dtype=np.float64)
        steps = ((start_us + SUBFRAME_US
                  * np.arange(n_subframes, dtype=np.int64))
                 // self.coherence_us)
        last = self._last_step
        final = int(steps[-1])
        if final <= last:
            return np.full(n_subframes, self.mean_sinr_db + self._state)
        # Draw exactly the innovations the scalar while-loop would, in
        # one block, then run the (inherently sequential) AR(1)
        # recurrence over them — the state trajectory per coherence
        # step, from which every subframe's value is a gather.
        innovations = self._rng.normal(0.0, self.std_db, final - last)
        scale = math.sqrt(1 - self.memory ** 2)
        memory = self.memory
        state = self._state
        states = np.empty(final - last + 1, dtype=np.float64)
        states[0] = state
        for i, innovation in enumerate(innovations):
            state = memory * state + scale * innovation
            states[i + 1] = state
        self._state = state
        self._last_step = final
        return self.mean_sinr_db + states[np.maximum(steps - last, 0)]


class TraceChannel(ChannelModel):
    """Piecewise-linear RSSI trajectory (mobility experiments).

    ``waypoints`` is a sequence of ``(time_us, rssi_dbm)`` pairs sorted
    by time; RSSI is linearly interpolated between waypoints and held
    constant beyond the ends.  Optional fading jitter rides on top.
    """

    def __init__(self, waypoints: Sequence[tuple[int, float]],
                 fading_std_db: float = 1.0, seed: int = 0) -> None:
        if len(waypoints) < 1:
            raise ValueError("need at least one waypoint")
        times = [t for t, _ in waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        for _, rssi_dbm in waypoints:
            require_real("waypoint rssi_dbm", rssi_dbm)
        require_real("fading_std_db", fading_std_db)
        if fading_std_db < 0:
            raise ValueError("fading_std_db must be non-negative")
        self._times = np.asarray(times, dtype=np.int64)
        self._rssi = np.asarray([r for _, r in waypoints], dtype=np.float64)
        self.fading_std_db = fading_std_db
        self._rng = np.random.default_rng(seed)
        # Precomputed per-segment slopes, replicating np.interp's exact
        # arithmetic — slope = Δy/Δx, value = slope·(x-x_lo) + y_lo — so
        # per-call interpolation is one bisect plus one fused multiply-
        # add instead of an np.interp array round-trip.
        rssi = [float(r) for _, r in waypoints]
        self._times_list = times
        self._rssi_list = rssi
        self._slopes_list = [
            (rssi[j + 1] - rssi[j]) / (times[j + 1] - times[j])
            for j in range(len(times) - 1)]
        self._slopes = np.asarray(self._slopes_list, dtype=np.float64)

    def rssi_dbm(self, now_us: int) -> float:
        """Interpolated RSSI along the trajectory."""
        times = self._times_list
        if now_us <= times[0]:
            return self._rssi_list[0]
        if now_us >= times[-1]:
            return self._rssi_list[-1]
        j = bisect.bisect_right(times, now_us) - 1
        return (self._slopes_list[j] * (now_us - times[j])
                + self._rssi_list[j])

    def _rssi_block(self, times_us: np.ndarray) -> np.ndarray:
        times, rssi = self._times, self._rssi
        if len(times) == 1:
            return np.full(len(times_us), rssi[0])
        j = np.clip(np.searchsorted(times, times_us, side="right") - 1,
                    0, len(times) - 2)
        out = self._slopes[j] * (times_us - times[j]) + rssi[j]
        out[times_us <= times[0]] = rssi[0]
        out[times_us >= times[-1]] = rssi[-1]
        return out

    def sinr_db(self, now_us: int) -> float:
        sinr = rssi_to_sinr_db(self.rssi_dbm(now_us))
        if self.fading_std_db > 0:
            sinr += self._rng.normal(0.0, self.fading_std_db)
        return sinr

    def sinr_block(self, start_us: int, n_subframes: int) -> np.ndarray:
        times_us = (start_us
                    + SUBFRAME_US * np.arange(n_subframes, dtype=np.int64))
        sinr = rssi_to_sinr_db(self._rssi_block(times_us))
        if self.fading_std_db > 0:
            sinr += self._rng.normal(0.0, self.fading_std_db, n_subframes)
        return sinr
