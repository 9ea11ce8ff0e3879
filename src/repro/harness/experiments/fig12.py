"""Figure 12: distributions across locations for the four
high-throughput algorithms (PBE, BBR, CUBIC, Verus).

(a) CDF of per-location average throughput; (b) CDF of per-location
95th-percentile one-way delay.  The paper's headline from this figure:
PBE-CC has the highest throughput at most locations while keeping the
delay distribution far to the left of BBR/CUBIC/Verus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sweep import SweepResult

HIGH_THROUGHPUT_SCHEMES = ("pbe", "bbr", "cubic", "verus")


@dataclass
class Fig12Result:
    #: {scheme: sorted per-location average throughput, Mbit/s}
    throughput_mbps: dict
    #: {scheme: sorted per-location 95th-percentile delay, ms}
    p95_delay_ms: dict


def fig12_from_sweep(sweep: SweepResult,
                     schemes: tuple[str, ...] = HIGH_THROUGHPUT_SCHEMES)\
        -> Fig12Result:
    """Reduce a stationary sweep to Figure 12's two CDFs."""
    throughput: dict[str, list[float]] = {}
    delay: dict[str, list[float]] = {}
    for scheme in schemes:
        entries = sweep.for_scheme(scheme)
        if not entries:
            continue
        throughput[scheme] = sorted(
            e.summary.average_throughput_mbps for e in entries)
        delay[scheme] = sorted(
            e.summary.p95_delay_ms for e in entries)
    if not throughput:
        raise ValueError("sweep contains none of the requested schemes")
    return Fig12Result(throughput, delay)
