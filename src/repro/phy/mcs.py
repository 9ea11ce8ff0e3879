"""CQI / MCS tables and physical-rate computation.

The paper's monitor extracts, from each decoded control message, the
modulation-and-coding scheme (MCS) and number of spatial streams, and
turns them into a wireless physical data rate ``Rw`` in *bits per PRB*
(Eqn. 2).  This module provides that mapping.

The CQI table follows 3GPP TS 36.213 Table 7.2.3-1 (extended with the
256-QAM entries of Table 7.2.3-2) — spectral efficiency in bits per
resource element.  One PRB pair carries 168 resource elements per
subframe of which roughly 120 carry data after reference-signal and
control overhead; with 2 spatial streams and 256-QAM this yields the
~1.8 Mbit/s/PRB maximum rate the paper reports in Figure 11(b).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

#: Resource elements per PRB pair per subframe (12 subcarriers × 14 syms).
RE_PER_PRB = 168
#: Fraction of REs usable for data after pilots/PDCCH overhead.
DATA_RE_FRACTION = 0.72
#: Data-carrying resource elements per PRB pair.
DATA_RE_PER_PRB = int(RE_PER_PRB * DATA_RE_FRACTION)  # = 120


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding-scheme table row."""

    index: int
    modulation: str
    bits_per_symbol: int
    code_rate: float

    @property
    def efficiency(self) -> float:
        """Information bits per resource element."""
        return self.bits_per_symbol * self.code_rate


#: CQI-indexed MCS table.  Index 0 means out-of-range (no transmission).
#: Entries 1-15 follow TS 36.213 Table 7.2.3-1; 16-17 extend to 256-QAM.
MCS_TABLE: tuple[McsEntry, ...] = (
    McsEntry(0, "none", 0, 0.0),
    McsEntry(1, "QPSK", 2, 0.0762),
    McsEntry(2, "QPSK", 2, 0.1172),
    McsEntry(3, "QPSK", 2, 0.1885),
    McsEntry(4, "QPSK", 2, 0.3008),
    McsEntry(5, "QPSK", 2, 0.4385),
    McsEntry(6, "QPSK", 2, 0.5879),
    McsEntry(7, "16QAM", 4, 0.3691),
    McsEntry(8, "16QAM", 4, 0.4785),
    McsEntry(9, "16QAM", 4, 0.6016),
    McsEntry(10, "64QAM", 6, 0.4551),
    McsEntry(11, "64QAM", 6, 0.5537),
    McsEntry(12, "64QAM", 6, 0.6504),
    McsEntry(13, "64QAM", 6, 0.7539),
    McsEntry(14, "64QAM", 6, 0.8525),
    McsEntry(15, "64QAM", 6, 0.9258),
    McsEntry(16, "256QAM", 8, 0.8408),
    McsEntry(17, "256QAM", 8, 0.9258),
)

MAX_MCS_INDEX = len(MCS_TABLE) - 1

#: Minimum SINR (dB) at which each CQI/MCS index becomes usable.  Derived
#: from the standard ~2 dB-per-CQI-step rule of thumb anchored at
#: QPSK 1/13 ≈ -6 dB and 256-QAM 0.93 ≈ 28 dB.
_SINR_THRESHOLDS_DB: tuple[float, ...] = (
    -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0,
    12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 25.0, 28.0,
)


#: numpy view of the thresholds for the block (searchsorted) path.
_SINR_THRESHOLDS_ARR = np.asarray(_SINR_THRESHOLDS_DB, dtype=np.float64)

#: Single-stream bits per PRB indexed by MCS — the LUT both the scalar
#: and the block rate paths read (``int(efficiency · DATA_RE_PER_PRB)``
#: precomputed per table row).
_BITS_PER_PRB_BY_MCS: tuple[int, ...] = tuple(
    int(entry.efficiency * DATA_RE_PER_PRB) for entry in MCS_TABLE)
_BITS_PER_PRB_ARR = np.asarray(_BITS_PER_PRB_BY_MCS, dtype=np.int64)


def sinr_to_mcs(sinr_db: float) -> int:
    """Highest MCS index supported at ``sinr_db`` (0 if below range).

    One threshold per index above 0, so the result tops out at
    :data:`MAX_MCS_INDEX`.
    """
    return bisect.bisect_right(_SINR_THRESHOLDS_DB, sinr_db)


def sinr_to_mcs_block(sinr_db: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sinr_to_mcs` over an SINR trajectory.

    ``np.searchsorted(side="right")`` is element-for-element identical
    to ``bisect.bisect_right``, so the returned indices match n scalar
    calls exactly.
    """
    return np.searchsorted(_SINR_THRESHOLDS_ARR, sinr_db, side="right")


def bits_per_prb(mcs_index: int, spatial_streams: int = 1) -> int:
    """Transport bits carried by one PRB pair in one subframe.

    This is the per-PRB physical rate ``Rw`` of Eqns. 2-3 (units: bits
    per PRB per subframe; divide by 1 ms for bits/s).
    """
    if not 0 <= mcs_index <= MAX_MCS_INDEX:
        raise ValueError(f"MCS index out of range: {mcs_index}")
    if not 1 <= spatial_streams <= 4:
        raise ValueError(f"spatial streams out of range: {spatial_streams}")
    return _BITS_PER_PRB_BY_MCS[mcs_index] * spatial_streams


def bits_per_prb_block(mcs_index: np.ndarray,
                       spatial_streams: np.ndarray | int) -> np.ndarray:
    """Vectorized :func:`bits_per_prb` (fancy-indexed LUT gather).

    ``spatial_streams`` may be a scalar or a per-element array; values
    are assumed already validated (they come from
    :func:`sinr_to_mcs_block` and the UE category).
    """
    return _BITS_PER_PRB_ARR[mcs_index] * spatial_streams


def max_bits_per_prb(spatial_streams: int = 2) -> int:
    """Peak per-PRB rate (the paper's 1.8 Mbit/s/PRB for 2 streams)."""
    return bits_per_prb(MAX_MCS_INDEX, spatial_streams)

