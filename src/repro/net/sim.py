"""Discrete-event simulation core.

The simulator keeps a single priority queue of timestamped callbacks.
Time is an integer number of microseconds (see :mod:`repro.net.units`).
Events scheduled for the same instant fire in scheduling order (a
monotonically increasing sequence number breaks ties), which makes runs
fully deterministic for a given seed.

Implementation notes for the hot loop: heap entries are plain
``(time, seq, event)`` tuples with a unique ``seq``, so ordering is
resolved by C-level tuple comparison and never reaches the event, and
cancelled events are lazily deleted — they stay in the heap and are
skipped when popped.  The simulator counts the dead entries still
queued, so ``len(_heap) - _cancelled`` is the number of live events.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events can be cancelled; cancelled events stay in the heap but are
    skipped when popped (lazy deletion), which is O(1) instead of O(n).
    The owning simulator counts the cancelled entries it still holds.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The simulator whose heap still holds this event (``None``
        #: once popped, so late cancels cannot skew the dead count).
        self._owner: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark this event so it will not fire."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            owner._cancelled += 1


class Simulator:
    """Deterministic discrete-event simulator with an integer-µs clock.

    ``perf`` (see :class:`repro.perf.PerfCounters`, ``None`` by default)
    is an optional observability hook: assign one and the loop counts
    scheduled, popped and cancelled events.  It never alters behaviour.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq: int = 0
        self._running = False
        #: ``until_us`` of the ``run`` in progress (infinite if none).
        self._limit: float = 0
        #: Cancelled events still sitting in the heap.
        self._cancelled: int = 0
        self.perf: Optional[Any] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_us: int,
                 callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_us`` from now."""
        if delay_us < 0:
            raise ValueError(f"cannot schedule into the past ({delay_us} us)")
        # Inlined schedule_at: this is the hottest allocation site in
        # the simulator (every pace/ACK/RTO passes through here), and
        # the extra Python call was measurable.
        time_us = self.now + delay_us
        seq = self._seq
        event = Event(time_us, seq, callback, args)
        event._owner = self
        heapq.heappush(self._heap, (time_us, seq, event))
        self._seq = seq + 1
        if self.perf is not None:
            self.perf.events_scheduled += 1
        return event

    def schedule_at(self, time_us: int,
                    callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_us``."""
        if time_us < self.now:
            raise ValueError(
                f"cannot schedule at {time_us} us; now is {self.now} us")
        event = Event(time_us, self._seq, callback, args)
        event._owner = self
        heapq.heappush(self._heap, (time_us, self._seq, event))
        self._seq += 1
        if self.perf is not None:
            self.perf.events_scheduled += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_us: Optional[int] = None) -> None:
        """Run events until the heap drains or the clock passes ``until_us``.

        When ``until_us`` is given and nothing at or before it is left
        the clock is set exactly there, so consecutive ``run`` calls see
        a continuous timeline; after :meth:`stop` it stays at the last
        event, because earlier events may still be queued.
        """
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        perf = self.perf
        # One comparison per pop instead of a None check + comparison.
        self._limit = limit = float("inf") if until_us is None else until_us
        while heap and self._running:
            entry = heap[0]
            if entry[0] > limit:
                break
            heappop(heap)
            event = entry[2]
            event._owner = None
            if event.cancelled:
                self._cancelled -= 1
                if perf is not None:
                    perf.events_cancelled_popped += 1
                continue
            self.now = entry[0]
            if perf is not None:
                perf.events_popped += 1
            event.callback(*event.args)
        if self._running and until_us is not None and self.now < until_us:
            self.now = until_us
        self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._running = False

    def advance_to(self, time_us: int) -> bool:
        """Move the clock to ``time_us`` from inside a callback, if no
        queued event could tell the difference.

        Equivalent to scheduling the caller's continuation at
        ``time_us`` and returning, minus the heap traffic.  Refused
        (``False``, clock untouched) outside ``run`` or after
        :meth:`stop`, beyond the running ``run``'s ``until_us``, and when
        any heap entry — cancelled or not — is due at or before
        ``time_us``: an equal-time entry was queued first, so it fires
        first.  On refusal the caller schedules itself as usual.
        """
        heap = self._heap
        if ((heap and heap[0][0] <= time_us) or not self._running
                or not self.now <= time_us <= self._limit):
            return False
        self.now = time_us
        return True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self, encode_entry: Callable[[int, int, Event], Any]
                       ) -> dict:
        """Serializable clock + heap state.

        ``encode_entry(time, seq, event)`` turns one heap entry into
        plain data (the checkpoint layer encodes the callback as an
        owner key and the args through the state-dict codec).  The heap
        array is kept **verbatim** — cancelled entries included, in heap
        order — so a restored simulator replays the exact same pop
        sequence.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "cancelled": self._cancelled,
            "heap": [encode_entry(time, seq, event)
                     for time, seq, event in self._heap],
        }

    def restore_state(self, state: dict,
                      make_event: Callable[[Any], Event]) -> None:
        """Restore clock and heap from :meth:`snapshot_state` output.

        ``make_event(raw_entry)`` must return an :class:`Event` with its
        ``time``/``seq``/``cancelled`` fields set (callback and args may
        be resolved by the caller afterwards — the heap only orders on
        the ``(time, seq)`` tuple key).  The serialized order is reused
        verbatim; it was a valid heap when captured.
        """
        self.now = state["now"]
        self._seq = state["seq"]
        self._cancelled = state["cancelled"]
        heap = []
        for raw in state["heap"]:
            event = make_event(raw)
            event._owner = self
            heap.append((event.time, event.seq, event))
        self._heap[:] = heap
