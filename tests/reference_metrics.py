"""The list-based end-of-run readers, kept verbatim as a test oracle.

This is ``repro.harness.metrics``' ``windowed_throughput_bps``,
``percentile`` and ``summarize_flow`` and ``repro.harness.fingerprint``'s
hashing of a flow's columns as they stood before both read the packed
``FlowStats`` columns directly: the delays boxed into a list of floats,
each order statistic through its own ``list()`` copy, and each column
hashed as ``repr(tuple(column))``.  The one edit is the fallback's
``stats.delays_ms()``, a method since deleted, written out inline.
Nothing under ``src/`` imports it; ``tests/test_end_of_run.py`` drives
it beside the package on random logs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.harness.fingerprint import _canon
from repro.harness.metrics import ORDER_STATS, WINDOW_US, FlowSummary
from repro.net.flow import FlowStats
from repro.net.units import US_PER_MS, US_PER_S


def windowed_throughput_bps(stats: FlowStats,
                            window_us: int = WINDOW_US,
                            start_us: int | None = None,
                            end_us: int | None = None) -> np.ndarray:
    """Per-window goodput across the flow's active span, bits/s."""
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
    n_windows = int(np.ceil((end - start) / window_us))
    indices = np.clip((arrivals - start) // window_us, 0, n_windows - 1)
    mask = (arrivals >= start) & (arrivals <= end)
    sums = np.bincount(indices[mask].astype(int), weights=sizes[mask],
                       minlength=n_windows)
    return sums * (US_PER_S / window_us)


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile with the paper's plotting convention (linear interp)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, p))


def summarize_flow(stats: FlowStats, scheme: str = "",
                   window_us: int = WINDOW_US,
                   skip_first_us: int = 0) -> FlowSummary:
    """Compute the paper's reported statistics for one flow."""
    if stats.packets == 0:
        empty = {p: 0.0 for p in ORDER_STATS}
        return FlowSummary(scheme, 0.0, dict(empty), 0.0, 0.0, 0.0,
                           dict(empty), 0)
    start = stats.first_arrival_us + skip_first_us
    delays_ms = [d / US_PER_MS for t, d in
                 zip(stats.arrival_us, stats.delay_us) if t >= start]
    if not delays_ms:
        delays_ms = [d / US_PER_MS for d in stats.delay_us]
        start = stats.first_arrival_us
    windows = windowed_throughput_bps(stats, window_us, start_us=start)
    tput_pct = {p: percentile(windows, p) for p in ORDER_STATS}
    delay_pct = {p: percentile(delays_ms, p) for p in ORDER_STATS}
    return FlowSummary(
        scheme=scheme,
        average_throughput_bps=float(np.mean(windows)) if windows.size
        else 0.0,
        throughput_percentiles_bps=tput_pct,
        average_delay_ms=float(np.mean(delays_ms)),
        median_delay_ms=percentile(delays_ms, 50),
        p95_delay_ms=percentile(delays_ms, 95),
        delay_percentiles_ms=delay_pct,
        packets=len(delays_ms))


def column_bytes(column) -> bytes:
    """What the digest fed its hasher for one column: the whole tuple's
    ``repr`` and the part separator."""
    return repr(_canon(tuple(column))).encode() + b"\x00"
