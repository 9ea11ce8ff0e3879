"""Hot-path observability: lightweight event and tick counters.

Wall time is measured from outside the package (``bench/clock.py`` for
end-to-end runs, ``bench/trace.py`` for per-layer spans); this module
only counts.

Design constraints:

* **Zero overhead when off.**  Every hook site holds an optional
  reference that defaults to ``None``; the hot loops pay one attribute
  load and an ``is None`` test, nothing else.
* **No behavioural footprint.**  Counters never feed back into
  simulation decisions, so an instrumented run is byte-identical to an
  uninstrumented one (the determinism suite is the oracle for this).
"""

from __future__ import annotations

__all__ = ["PerfCounters"]


class PerfCounters:
    """Shared counter block for one simulation's hot paths.

    Attach one instance to the pieces you want to observe by assigning
    it; ``None``, the default, counts nothing::

        perf = PerfCounters()
        experiment = Experiment(scenario)
        experiment.sim.perf = perf
        experiment.network.perf = perf
        ...
        print(perf.ticks, perf.events_popped)

    Counters:

    ``ticks``
        subframes the MAC engine processed.
    ``events_popped``
        events the simulator executed (live pops).
    ``events_cancelled_popped``
        lazily-deleted events that were popped and skipped.
    ``events_scheduled``
        total events pushed onto the heap.
    ``ack_batches`` / ``acks_batched``
        grant-cycle flushes the uplink delivered, each as one
        ``receive_batch`` event carrying the burst, and how many ACKs
        rode in them (a flush of a single ACK is a batch of one).
    """

    __slots__ = ("ticks", "events_popped", "events_cancelled_popped",
                 "events_scheduled", "ack_batches", "acks_batched")

    def __init__(self) -> None:
        self.ticks = 0
        self.events_popped = 0
        self.events_cancelled_popped = 0
        self.events_scheduled = 0
        self.ack_batches = 0
        self.acks_batched = 0
