"""Timing that is steady on a machine whose speed is not.

The reference box is a 2-vCPU VM whose cores flip, every few seconds to
minutes, between a fast state and one about 25 % slower (other tenants
on the host; the guest sees no steal time).  A 240-repetition series of
one input read 0.79 s or 1.03 s per repetition and little in between,
so a run's median lands in whichever state held for most of the run,
and ten runs of one commit spread by 10-23 %.

:func:`measure` therefore brackets the timed call with a short, fixed,
pure-Python calibration kernel and reports, next to the raw wall and
CPU seconds, the *slowdown* the kernel saw (its time over
:data:`KERNEL_REF_S`, its time on the reference box in the fast state).
Raw seconds divided by the slowdown are "seconds at reference speed":
on the series above that cut the spread of single repetitions from
23 % to 7 %.  The kernel shares no code with ``src/repro``, so a change
to the package cannot move it.
"""

from __future__ import annotations

import heapq
import resource
import time
from dataclasses import dataclass

#: Events one kernel call processes (26-27 ms on the reference box).
KERNEL_EVENTS = 40_000
#: Kernel seconds on the reference box in its fast state.
KERNEL_REF_S = 0.0265


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time_us: int, seq: int, payload: list) -> None:
        self.time = time_us
        self.seq = seq
        self.payload = payload


def kernel_seconds() -> float:
    """Time the calibration kernel once.

    An event-loop-shaped mix of what the simulator spends its time on:
    heap pushes and pops of tuples, small-object allocation, dictionary
    stores, list appends and float arithmetic.
    """
    t0 = time.perf_counter()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    state: dict = {}
    smoothed = 0.0
    seq = 0
    for i in range(64):
        push(heap, (i * 7 % 64, seq, _Event(i, seq, [i])))
        seq += 1
    for _ in range(KERNEL_EVENTS):
        now, popped_seq, event = pop(heap)
        smoothed = 0.875 * smoothed + 0.125 * (now % 97)
        state[popped_seq & 1023] = event
        event.payload.append(smoothed)
        push(heap, (now + 1 + popped_seq * 31 % 17, seq,
                    _Event(now, seq, event.payload[-2:])))
        seq += 1
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Timing:
    result: object
    #: Raw wall and CPU seconds of the call.
    wall_s: float
    cpu_s: float
    #: Machine speed around the call: kernel time / reference time.
    slowdown: float

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds at reference speed."""
        return self.wall_s / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


def measure(fn, *args) -> Timing:
    """Call ``fn(*args)`` between two kernel runs and time it."""
    before = kernel_seconds()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    result = fn(*args)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    after = kernel_seconds()
    return Timing(result, wall_s, cpu_s,
                  (before + after) / (2 * KERNEL_REF_S))
