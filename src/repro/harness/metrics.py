"""Measurement conventions of the paper's evaluation (§6.1).

Throughput is measured in 100-millisecond windows; delay statistics are
per-packet one-way delays; order statistics (10/25/50/75/90th
percentiles) drive Figures 13-14; Jain's fairness index drives §6.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..net.flow import FlowStats
from ..net.units import US_PER_MS, US_PER_S

#: The paper's throughput measurement window.
WINDOW_US = 100_000


def windowed_throughput_bps(stats: FlowStats) -> np.ndarray:
    """Per-window goodput across the flow's active span (first to last
    arrival, in ``WINDOW_US`` windows), bits/s.

    Reads the packed columns through numpy views and builds one
    full-length temporary, the window index.  Window sums add integer
    sizes far below 2**53, so they are exact in any order.
    """
    if stats.packets == 0:
        return np.array([])
    start = stats.first_arrival_us
    end = stats.last_arrival_us
    if end <= start:
        return np.array([])
    n_windows = int(np.ceil((end - start) / WINDOW_US))
    index = np.asarray(stats.arrival_us) - start
    index //= WINDOW_US
    np.minimum(index, n_windows - 1, out=index)
    sums = np.bincount(index, weights=np.asarray(stats.size_bits),
                       minlength=n_windows)
    return sums * (US_PER_S / WINDOW_US)


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile with the paper's plotting convention (linear interp)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, p))


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²); 1.0 is perfectly fair.

    Two degenerate inputs get defined values instead of a
    ZeroDivisionError: an empty sequence and all-zero throughputs both
    return 1.0 (no flow is disadvantaged relative to any other).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 1.0
    denom = arr.size * float(np.sum(arr ** 2))
    if denom == 0:
        return 1.0
    return float(np.sum(arr)) ** 2 / denom


@dataclass
class FlowSummary:
    """Everything the paper reports about one flow."""

    scheme: str
    average_throughput_bps: float
    throughput_percentiles_bps: dict
    average_delay_ms: float
    median_delay_ms: float
    p95_delay_ms: float
    delay_percentiles_ms: dict
    packets: int

    @property
    def average_throughput_mbps(self) -> float:
        return self.average_throughput_bps / 1e6


#: Order statistics plotted in Figures 13-14.
ORDER_STATS = (10, 25, 50, 75, 90)
#: Every delay order statistic a summary reports (median and p95 too).
DELAY_STATS = ORDER_STATS + (95,)


def summarize_flow(stats: FlowStats, scheme: str = "") -> FlowSummary:
    """Compute the paper's reported whole-flow statistics for one flow.

    The packed columns are read through numpy views, and the one
    full-length copy, the delays in ms, is partitioned in place for the
    order statistics after its mean is taken.  No view outlives the
    call, so the flow can keep recording.
    """
    if stats.packets == 0:
        empty = {p: 0.0 for p in ORDER_STATS}
        return FlowSummary(scheme, 0.0, dict(empty), 0.0, 0.0, 0.0,
                           dict(empty), 0)
    windows = windowed_throughput_bps(stats)
    tput_pct = dict.fromkeys(ORDER_STATS, 0.0)
    if windows.size:
        tput_pct = dict(zip(ORDER_STATS,
                            np.percentile(windows, ORDER_STATS).tolist()))
    delays_ms = np.asarray(stats.delay_us) / US_PER_MS
    average_delay_ms = float(np.mean(delays_ms))
    delay_pct = dict(zip(DELAY_STATS, np.percentile(
        delays_ms, DELAY_STATS, overwrite_input=True).tolist()))
    p95_delay_ms = delay_pct.pop(95)
    return FlowSummary(
        scheme=scheme,
        average_throughput_bps=float(np.mean(windows)) if windows.size
        else 0.0,
        throughput_percentiles_bps=tput_pct,
        average_delay_ms=average_delay_ms,
        median_delay_ms=delay_pct[50],
        p95_delay_ms=p95_delay_ms,
        delay_percentiles_ms=delay_pct,
        packets=delays_ms.size)
