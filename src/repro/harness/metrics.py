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


def windowed_throughput_bps(stats: FlowStats,
                            window_us: int = WINDOW_US,
                            start_us: int | None = None,
                            end_us: int | None = None) -> np.ndarray:
    """Per-window goodput across the flow's active span, bits/s.

    Reads the packed columns through numpy views and builds one
    full-length temporary, the window index; rows outside
    ``[start, end]`` are masked out only when there are any.  Window
    sums add integer sizes far below 2**53, so they are exact in any
    order.
    """
    if window_us <= 0:
        raise ValueError("window must be positive")
    if stats.packets == 0:
        return np.array([])
    start = stats.first_arrival_us if start_us is None else start_us
    end = stats.last_arrival_us if end_us is None else end_us
    if end <= start:
        return np.array([])
    arrivals = np.asarray(stats.arrival_us)
    sizes = np.asarray(stats.size_bits)
    if arrivals.min() < start or arrivals.max() > end:
        keep = (arrivals >= start) & (arrivals <= end)
        arrivals, sizes = arrivals[keep], sizes[keep]
    n_windows = int(np.ceil((end - start) / window_us))
    index = arrivals - start
    index //= window_us
    np.minimum(index, n_windows - 1, out=index)
    sums = np.bincount(index, weights=sizes, minlength=n_windows)
    return sums * (US_PER_S / window_us)


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


def summarize_flow(stats: FlowStats, scheme: str = "",
                   window_us: int = WINDOW_US,
                   skip_first_us: int = 0) -> FlowSummary:
    """Compute the paper's reported statistics for one flow.

    ``skip_first_us`` optionally trims the startup transient (the paper
    reports whole-flow figures; some drill-downs exclude slow-start).
    The packed columns are read through numpy views, and the one
    full-length copy, the delays in ms, is partitioned in place for the
    order statistics after its mean is taken.  No view outlives the
    call, so the flow can keep recording.
    """
    if stats.packets == 0:
        empty = {p: 0.0 for p in ORDER_STATS}
        return FlowSummary(scheme, 0.0, dict(empty), 0.0, 0.0, 0.0,
                           dict(empty), 0)
    start = stats.first_arrival_us + skip_first_us
    delays = np.asarray(stats.delay_us)
    arrivals = np.asarray(stats.arrival_us)
    if arrivals.min() < start:
        kept = delays[arrivals >= start]
        if kept.size:
            delays = kept
        else:
            start = stats.first_arrival_us
    windows = windowed_throughput_bps(stats, window_us, start_us=start)
    tput_pct = dict.fromkeys(ORDER_STATS, 0.0)
    if windows.size:
        tput_pct = dict(zip(ORDER_STATS,
                            np.percentile(windows, ORDER_STATS).tolist()))
    delays_ms = delays / US_PER_MS
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
