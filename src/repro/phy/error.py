"""Transport-block error model (§4.2.1, Figure 6 of the paper).

The paper models transport-block errors from an i.i.d. per-bit error
probability ``p``:  ``TBLER(L) = 1 - (1 - p)^L`` for a block of ``L``
bits, and reports a good fit against measurements with ``p`` between
1e-6 (strong signal, −98 dBm) and 5e-6 (weak signal, −113 dBm).

We calibrate a log-linear SINR→BER mapping to reproduce those anchor
points: −98 dBm ≈ 13 dB SINR → 1e-6, −113 dBm ≈ −2 dB SINR → 5e-6
(see :data:`repro.phy.channel.NOISE_FLOOR_DBM`).
"""

from __future__ import annotations

import math

import numpy as np

#: BER calibration anchors: (SINR dB, BER).
_ANCHOR_HIGH = (13.0, 1e-6)
_ANCHOR_LOW = (-2.0, 5e-6)
#: log10(BER) slope per dB of SINR, from the two anchors.
_SLOPE = ((math.log10(_ANCHOR_HIGH[1]) - math.log10(_ANCHOR_LOW[1]))
          / (_ANCHOR_HIGH[0] - _ANCHOR_LOW[0]))
_INTERCEPT = math.log10(_ANCHOR_LOW[1]) - _SLOPE * _ANCHOR_LOW[0]

#: Clamp bounds keeping the model in the regime the paper measured.
MIN_BER = 1e-8
MAX_BER = 1e-4

#: Per-retransmission BER reduction from HARQ chase combining.
HARQ_COMBINING_GAIN = 0.1


def sinr_to_ber(sinr_db: float) -> float:
    """Residual post-FEC bit error rate at a given SINR."""
    ber = 10.0 ** (_INTERCEPT + _SLOPE * sinr_db)
    return min(MAX_BER, max(MIN_BER, ber))


def sinr_to_ber_block(sinr_db: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sinr_to_ber` over an SINR trajectory.

    Same log-linear map and clamp.  ``np.float_power`` (not ``**``) is
    deliberate: the ``**`` array ufunc takes a SIMD path whose results
    differ from libm's ``pow`` by 1 ulp on some inputs, while
    ``float_power`` resolves to the same libm call as the scalar
    ``10.0 ** x`` — the equivalence tests assert bitwise identity.
    """
    exponent = _INTERCEPT + _SLOPE * np.asarray(sinr_db, dtype=np.float64)
    return np.clip(np.float_power(10.0, exponent), MIN_BER, MAX_BER)


def block_error_rate(ber: float, tb_bits: int) -> float:
    """Transport-block error rate ``1 - (1-p)^L`` (paper Eqn. 5 term).

    Uses ``expm1``/``log1p`` for numerical accuracy at the small ``p``
    and large ``L`` this model lives in.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"BER out of range: {ber}")
    if tb_bits < 0:
        raise ValueError("TB size must be non-negative")
    if tb_bits == 0 or ber == 0.0:
        return 0.0
    return -math.expm1(tb_bits * math.log1p(-ber))


def retransmission_ber(ber: float, attempt: int) -> float:
    """Effective BER on the ``attempt``-th HARQ try (0 = first Tx).

    Each retransmission benefits from chase combining with the earlier
    (failed) copies, modelled as the constant multiplicative BER gain
    ``HARQ_COMBINING_GAIN``.
    """
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    return ber * (HARQ_COMBINING_GAIN ** attempt)
