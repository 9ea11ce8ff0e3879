"""In-memory span tracer, installed from outside for the traced pass.

A span is ``(name, start, end, parent)``; a layer's *self time* is its
span's duration minus the part its child spans cover.  Spans live in
four packed columns until :meth:`Tracer.drain` folds them into per-name
self time and call counts, so recording costs two clock reads and four
appends.

Nothing in ``src/repro`` knows about this module.  :meth:`Tracer.install`
reaches the layers two ways and :meth:`Tracer.uninstall` undoes both:

* the event loop is the universal layer boundary, so
  ``Simulator.schedule``/``schedule_at`` are wrapped and every event
  whose callback is listed in :data:`EVENT_SPANS` pops as a span named
  after the layer that owns the callback;
* the layers' synchronous entry points listed in :data:`CALL_SPANS` are
  wrapped where they are defined (class attribute, or the importing
  module's global for a plain function).

A target that no longer exists is skipped and reported in
``Tracer.missing`` (its span then reads zero): a later change that
retires an entry point must not be forced to edit the benchmark.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

#: Marks a wrapper with its span id (and stops double wrapping).
_SPAN_ATTR = "_bench_span_id"

#: Synchronous entry points: span -> ``module:Owner.attribute`` targets
#: (``module:function`` patches the global of the *importing* module).
CALL_SPANS = {
    "net.sim.loop": ("repro.net.sim:Simulator.run",),
    "net.link": ("repro.net.link:Link.receive",),
    "net.uplink": ("repro.net.link:BatchingPipe.receive_block",
                   "repro.net.link:BatchingPipe.receive"),
    "phy.channel": ("repro.phy.channel:StaticChannel.sinr_block",
                    "repro.phy.channel:StaticChannel.sinr_db",
                    "repro.phy.channel:GaussMarkovChannel.sinr_block",
                    "repro.phy.channel:GaussMarkovChannel.sinr_db",
                    "repro.phy.channel:TraceChannel.sinr_block",
                    "repro.phy.channel:TraceChannel.sinr_db"),
    "phy.harq": ("repro.phy.harq:ReorderingBuffer.insert",
                 "repro.phy.harq:ReorderingBuffer.abandon"),
    "cell.scheduler": ("repro.cell.basestation:allocate_prbs",),
    "cell.control_traffic": (
        "repro.cell.control_traffic:ControlTrafficGenerator.tick",
        "repro.cell.control_traffic:ControlTrafficGenerator.advance_idle"),
    "cell.queues": ("repro.cell.queues:DownlinkQueue.push",
                    "repro.cell.queues:DownlinkQueue.pull"),
    "cell.ca": ("repro.cell.ca_manager:CarrierAggregationManager.observe",),
    "cell.ue": ("repro.cell.ue:UserEquipment.receive_tb",
                "repro.cell.ue:UserEquipment.abandon_tb"),
    "monitor.ingest": (
        "repro.monitor.decoder:ControlChannelDecoder.on_subframe",
        "repro.monitor.decoder:ControlChannelDecoder.ingest_batch"),
    "monitor.estimate": (
        "repro.monitor.capacity:CellCapacityEstimator.estimate",),
    "monitor.report": ("repro.monitor.pbe:PbeMonitor.report",),
    "core.client": ("repro.core.client:PbeClient.receive_block",),
    "core.sender": ("repro.core.sender:PbeSender.on_ack_block",),
    "baselines.ack_clock": ("repro.baselines.base:Sender.receive_batch",
                            "repro.baselines.base:Sender.receive"),
    "baselines.receiver": (
        "repro.baselines.base:AckingReceiver.receive_block",
        "repro.baselines.base:AckingReceiver.receive"),
    "baselines.cc.bbr": ("repro.baselines.bbr:Bbr.on_ack_block",),
    "baselines.cc.cubic": ("repro.baselines.cubic:Cubic.on_ack_block",),
    "baselines.cc.copa": ("repro.baselines.copa:Copa.on_ack_block",),
    "faults.decoder": ("repro.faults.decoder:LossyDecoder.on_subframe",),
    "faults.pipe": ("repro.faults.pipe:ImpairedPipe.receive",),
    "harness.summarize": ("repro.harness.runner:Experiment.run",),
}

#: Callables returned by these factories are wrapped too (the batched
#: monitor hands the cell a closure, not a method).
FACTORY_SPANS = {
    "monitor.ingest": ("repro.monitor.pbe:PbeMonitor.decoder_callback",),
}

#: Event callbacks, by the qualified name of the scheduled callable.
#: Callbacks that are :data:`CALL_SPANS` entry points (``receive_tb``,
#: ``Sender.receive`` ...) already record a span when they run and are
#: left alone; anything unlisted counts as ``net.sim.loop`` self time.
EVENT_SPANS = {
    "CellularNetwork._tick": "cell.tick",
    "_Ingress.receive": "cell.ingress",
    "Link._finish": "net.link",
    "BatchingPipe._flush": "net.uplink",
    "BatchingPipe._deliver": "net.uplink",
    "Sender._pace": "baselines.pace",
    "Sender.start": "baselines.pace",
    "Sender.stop": "baselines.ack_clock",
    "Sender._on_rto": "baselines.ack_clock",
}

#: Spans the benchmark records around its own calls into the package.
BENCH_SPANS = ("harness.build", "harness.digest", "metro.build")

#: Every span name, in reporting order.
SPAN_NAMES = tuple(dict.fromkeys(
    [*CALL_SPANS, *EVENT_SPANS.values(), *BENCH_SPANS]))


def self_times(ids, starts, ends, parents, n_names: int):
    """Per-name ``(self seconds, calls)`` from span columns.

    ``parents[i]`` is the index of the span that was open when span
    ``i`` started (-1 for a root).  Children are sequential inside
    their parent, so the time they cover is the sum of their durations.
    """
    ids = np.asarray(ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) \
        - np.asarray(starts, dtype=np.float64)
    n = len(ids)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent],
                          weights=duration[has_parent], minlength=n)
    self_s = np.bincount(ids, weights=duration - covered,
                         minlength=n_names)
    calls = np.bincount(ids, minlength=n_names)
    return self_s, calls


class Tracer:
    """Records spans; folds them into per-name self time and calls."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        #: Index of the innermost open span (-1 outside any span).
        self._open = [-1]
        #: ``(owner, attribute, original)`` of everything patched.
        self._patched: list = []
        #: Targets that could not be resolved at install time.
        self.missing: list = []
        #: scheduled callback -> its event wrapper (or itself).
        self._event_cache: dict = {}

    # -- recording -----------------------------------------------------
    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""
        span_id = self._index[name]
        ids, starts, ends = self._ids, self._starts, self._ends
        parents, current = self._parents, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(span_id)
            parents.append(current[0])
            ends.append(0.0)
            outer = current[0]
            current[0] = index
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                current[0] = outer

        setattr(traced, _SPAN_ATTR, span_id)
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span (the benchmark's own call sites)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def drain(self) -> dict:
        """``{name: (self seconds, calls)}`` of the spans recorded since
        the last drain, which are then forgotten."""
        self_s, calls = self_times(self._ids, self._starts, self._ends,
                                   self._parents, len(self.names))
        for column in (self._ids, self._starts, self._ends,
                       self._parents):
            del column[:]
        return {name: (float(self_s[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    # -- installation --------------------------------------------------
    def _resolve(self, target: str):
        """``module:Owner.attr`` -> ``(owner, attr, original)`` or None."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        # Only what the owner defines itself: an inherited method is
        # wrapped (once) where its defining class lists it.
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    def _patch(self, target: str, make_wrapper) -> None:
        resolved = self._resolve(target)
        if resolved is None:
            if target not in self.missing:
                self.missing.append(target)
            return
        owner, attr, original = resolved
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def _wrap_factory(self, factory, name: str):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            if hasattr(getattr(made, "__func__", made), _SPAN_ATTR):
                return made
            return self.wrap(made, name)
        return traced_factory

    def _event_wrapper(self, callback):
        """The callable to put on the heap in place of ``callback``."""
        wrapper = self._event_cache.get(callback)
        if wrapper is None:
            fn = getattr(callback, "__func__", callback)
            name = EVENT_SPANS.get(getattr(fn, "__qualname__", ""))
            if name is None or hasattr(fn, _SPAN_ATTR):
                wrapper = callback
            else:
                wrapper = self.wrap(callback, name)
            self._event_cache[callback] = wrapper
        return wrapper

    def install(self) -> None:
        """Patch the layers' entry points and the event scheduler."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, targets in CALL_SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, n=name: self.wrap(fn, n))
        for name, targets in FACTORY_SPANS.items():
            for target in targets:
                self._patch(target,
                            lambda fn, n=name: self._wrap_factory(fn, n))
        event_wrapper = self._event_wrapper

        def hook(schedule):
            @functools.wraps(schedule)
            def traced_schedule(sim, when, callback, *args):
                return schedule(sim, when, event_wrapper(callback), *args)
            return traced_schedule

        self._patch("repro.net.sim:Simulator.schedule", hook)
        self._patch("repro.net.sim:Simulator.schedule_at", hook)

    def uninstall(self) -> None:
        """Restore every patched attribute; raise if one was lost."""
        clobbered = []
        for owner, attr, original in reversed(self._patched):
            if not hasattr(vars(owner).get(attr), "__wrapped__"):
                clobbered.append(f"{owner.__name__}.{attr}")
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patched)
        self._patched.clear()
        self._event_cache.clear()
        if clobbered or not restored:
            raise RuntimeError("tracer uninstall: attributes not "
                               f"restored cleanly: {clobbered}")
