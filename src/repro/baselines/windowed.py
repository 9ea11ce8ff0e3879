"""Time-windowed min/max filters (used by BBR, PBE-CC and Copa).

Implemented as monotonic deques: O(1) amortized update, exact results
over a sliding time window.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class _WindowedExtreme:
    def __init__(self, window_us: int, keep_max: bool) -> None:
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.window_us = window_us
        self._keep_max = keep_max
        self._samples: deque[tuple[int, float]] = deque()

    def update(self, now_us: int, value: float) -> None:
        """Insert a sample and expire anything older than the window."""
        if self._keep_max:
            while self._samples and self._samples[-1][1] <= value:
                self._samples.pop()
        else:
            while self._samples and self._samples[-1][1] >= value:
                self._samples.pop()
        self._samples.append((now_us, value))
        self.expire(now_us)

    def expire(self, now_us: int) -> None:
        """Drop samples that fell out of the window."""
        horizon = now_us - self.window_us
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def get(self) -> Optional[float]:
        """Current extreme, or ``None`` when no samples are in window."""
        if not self._samples:
            return None
        return self._samples[0][1]


class WindowedMax(_WindowedExtreme):
    """Sliding-window maximum (e.g. BBR's BtlBw filter)."""

    def __init__(self, window_us: int) -> None:
        super().__init__(window_us, keep_max=True)


class WindowedMin(_WindowedExtreme):
    """Sliding-window minimum (e.g. RTprop / Dprop filters)."""

    def __init__(self, window_us: int) -> None:
        super().__init__(window_us, keep_max=False)
