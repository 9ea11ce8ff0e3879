"""Cross-layer bit-rate translation (Eqn. 5, Figure 6).

The capacities the monitor estimates are *physical-layer* capacities;
the sender needs a *transport-layer* goodput.  The two differ by HARQ
retransmission overhead — governed by the transport-block error rate
``1-(1-p)^L`` — and a constant protocol-header overhead γ:

    Cp = Ct + Ct·(1 - (1-p)^L) + γ·Cp            (Eqn. 5)

with ``L = Ct · 1 ms`` the transport-block size when the user takes its
share.  Given measured ``Cp`` and SINR-estimated ``p`` we solve for
``Ct`` by bisection (the left side is strictly increasing in ``Ct``),
and cache results in a quantized lookup table exactly as the paper's
implementation does "to speed up the calculation".
"""

from __future__ import annotations

import math

from ..cell.queues import PROTOCOL_OVERHEAD
from ..phy.error import block_error_rate

#: Lookup-table quantization, bits per subframe (1 kbit ≈ 1 Mbit/s).
_CP_QUANTUM = 1_000
#: BER quantization exponent step for the cache key.
_BER_QUANTUM = 0.25


def transport_from_physical(cp_bits_per_subframe: float,
                            ber: float) -> float:
    """Solve Eqn. 5 for the transport goodput ``Ct`` (bits/subframe)."""
    if cp_bits_per_subframe < 0:
        raise ValueError("capacity must be non-negative")
    if cp_bits_per_subframe == 0:
        return 0.0
    target = (1.0 - PROTOCOL_OVERHEAD) * cp_bits_per_subframe

    def surplus(ct: float) -> float:
        tbler = block_error_rate(ber, int(ct))
        return ct * (1.0 + tbler) - target

    lo, hi = 0.0, target
    if surplus(hi) <= 0:  # retransmission overhead ≈ 0
        return hi
    for _ in range(40):
        mid = (lo + hi) / 2
        if surplus(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


class TranslationTable:
    """Memoizing wrapper around :func:`transport_from_physical`.

    Physical capacity is quantized to 1 kbit/subframe and BER to quarter
    decades, so steady-state operation hits the cache almost always —
    mirroring the lookup table in the paper's implementation.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def transport_rate(self, cp_bits_per_subframe: float,
                       ber: float) -> float:
        """Quantized, cached Eqn. 5 solution."""
        cp_q = int(cp_bits_per_subframe // _CP_QUANTUM)
        ber_q = (0 if ber <= 0
                 else round(math.log10(ber) / _BER_QUANTUM))
        key = (cp_q, ber_q)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ber_rep = 0.0 if ber <= 0 else 10.0 ** (ber_q * _BER_QUANTUM)
        value = transport_from_physical(cp_q * _CP_QUANTUM, ber_rep)
        self._cache[key] = value
        return value
