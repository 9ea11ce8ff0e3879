"""Crash-consistent mid-run snapshots with byte-identical resume.

A checkpoint captures a live :class:`repro.harness.runner.Experiment`
at a subframe boundary — event heap, packets on the wire, derived RNG
streams, PHY/channel/HARQ state, scheduler and PF state, monitor and
decoder state, per-flow transport state — as one state
document built by the :mod:`repro.statedict` codec (no raw pickling of
live objects; every class is registered with an explicit skip list, and
anything unrecognized raises instead of silently corrupting the
snapshot).

The restore contract is **byte identity**: rebuild the experiment from
its spec exactly as an uninterrupted run would, restore the newest
valid snapshot on top, finish the run — the run fingerprint
(:mod:`repro.harness.fingerprint`) equals the straight-through run's.
This holds because snapshots are taken between events (``Simulator.run``
segments see a continuous timeline), the encoder only *reads* state,
and the heap is preserved verbatim (cancelled entries included, so
sequence numbers and compaction behaviour replay exactly).

On-disk format (one file per snapshot, ``ckpt-<subframe>.snap``)::

    {"code":<code id>,"length":L,"schema":...,"sha256":...,
     "subframe":N}\\n
    <L bytes of pickle payload>

written by :func:`repro.harness.serialize.write_bytes_atomic`.  A
snapshot restores only into the code that wrote it (``code`` is
:func:`~repro.harness.serialize.code_id`).  Corrupt, truncated or
foreign files are quarantined by renaming to ``*.quarantined`` and the
loader falls back to the next older snapshot — or to from-scratch
execution.

Pickle loading goes through a restricted unpickler that only admits
the state-dict marker classes, the registered identity record types
(packets, transport blocks, DCI records) and numpy array machinery.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .. import statedict
from ..baselines.base import AckingReceiver, Sender
from ..baselines.bbr import Bbr
from ..baselines.copa import Copa
from ..baselines.cubic import Cubic, Reno
from ..baselines.fixedrate import FixedRate
from ..baselines.pcc import PccAllegro, PccVivace, _MonitorInterval, _PccBase
from ..baselines.sprout import Sprout
from ..baselines.vegas import Vegas
from ..baselines.verus import Verus
from ..baselines.windowed import WindowedMax, WindowedMin
from ..cell.basestation import (
    CellularNetwork, UeCategory, _HarqState, _Ingress, _User)
from ..cell.ca_manager import CarrierAggregationManager, _UserCaState
from ..cell.control_traffic import ControlBurst, ControlTrafficGenerator
from ..cell.queues import DownlinkQueue, TransportBlock
from ..cell.scheduler import ProportionalFairState
from ..cell.ue import UserEquipment
from ..core.client import PbeClient
from ..core.feedback import PbeFeedback
from ..core.guard import FeedbackGuard
from ..core.sender import PbeSender
from ..faults.decoder import LossyDecoder
from ..faults.pipe import ImpairedPipe
from ..monitor.capacity import CellCapacityEstimator, CellEstimate
from ..monitor.decoder import ControlChannelDecoder
from ..monitor.filters import ActiveUserFilter, UserActivity, _SubframeUsers
from ..monitor.pbe import MonitorReport, PbeMonitor
from ..net.flow import FlowStats
from ..net.link import BatchingPipe, DelayPipe, FlowDemux, Link
from ..net.packet import Packet
from ..net.sim import Event, Simulator
from ..net.units import SUBFRAME_US
from ..phy.carrier import AggregationState
from ..phy.channel import GaussMarkovChannel, StaticChannel, TraceChannel
from ..phy.dci import DciMessage, SubframeRecord
from ..phy.harq import ReorderingBuffer
from ..traces.workload import CbrDemand, OnOffRandomDemand, ScheduledDemand
from .serialize import code_id, write_bytes_atomic

logger = logging.getLogger("repro.checkpoint")

#: Schema tag written into every snapshot header.
SCHEMA = "repro.harness/checkpoint"

SNAPSHOT_SUFFIX = ".snap"
QUARANTINE_SUFFIX = ".quarantined"

#: Default snapshot cadence, subframes (1 subframe = 1 ms simulated).
#: Boundaries this often are *eligible* for a snapshot; whether one is
#: actually persisted is governed by ``DEFAULT_WALL_BUDGET`` below.
DEFAULT_INTERVAL_SUBFRAMES = 1000

#: Amortized wall-clock budget for snapshotting, as a fraction of run
#: time.  Snapshot cost grows with accumulated state (per-packet stats
#: arrays), so a fixed subframe cadence cannot bound overhead on long
#: runs; instead the run loop skips an eligible boundary until the wall
#: time elapsed since the last save has amortized that save's cost
#: below this fraction.  The first eligible boundary always saves (it
#: establishes the cost estimate and guarantees an early restore
#: point), and drain/kill saves are unconditional.  2% leaves headroom
#: under the 5% acceptance bound: the cost estimate trails growth by
#: one save, so the realized fraction can exceed the nominal budget.
#: Measured overhead on the busy 2-carrier PBE scenario is in
#: EXPERIMENTS.md.
DEFAULT_WALL_BUDGET = 0.02


# ---------------------------------------------------------------------
# Type registration
# ---------------------------------------------------------------------
#: Data-record classes that ride through the state tree as live objects
#: (one pickle document => memoization preserves aliasing: a transport
#: block queued for HARQ retransmission and parked in a reordering
#: buffer decodes back to one shared object).
_IDENTITY = (Packet, TransportBlock, PbeFeedback, DciMessage,
             SubframeRecord)

#: Classes restored through the generic attribute walker.
_STATE = (
    # network / transport plumbing
    Link, DelayPipe, BatchingPipe, FlowDemux, FlowStats,
    Sender, AckingReceiver,
    # congestion controllers
    Bbr, Cubic, Reno, Copa, Sprout, Verus, Vegas, FixedRate,
    _PccBase, PccAllegro, PccVivace, _MonitorInterval,
    WindowedMax, WindowedMin,
    PbeSender, PbeClient, FeedbackGuard,
    # cellular network
    CellularNetwork, _User, _Ingress, _HarqState, UeCategory, UserEquipment,
    DownlinkQueue, ReorderingBuffer, AggregationState,
    ControlTrafficGenerator, ControlBurst,
    ProportionalFairState, CarrierAggregationManager, _UserCaState,
    # channels and demand
    StaticChannel, GaussMarkovChannel, TraceChannel,
    CbrDemand, ScheduledDemand, OnOffRandomDemand,
    # monitor pipeline
    PbeMonitor, CellCapacityEstimator, CellEstimate,
    ControlChannelDecoder, ActiveUserFilter, UserActivity, _SubframeUsers,
    MonitorReport,
    # fault injectors
    ImpairedPipe, LossyDecoder,
)

for _cls in _IDENTITY:
    statedict.register_identity_type(_cls)
for _cls in _STATE:
    statedict.register_state_type(_cls)


# ---------------------------------------------------------------------
# Drain requests (SIGTERM-driven graceful preemption)
# ---------------------------------------------------------------------
class CheckpointDrain(OSError):
    """A drain request interrupted a checkpointed run.

    Raised from the run loop right after a boundary snapshot was
    persisted.  Subclasses :class:`OSError` so the exec layer's crash
    handling (`_CRASH_ERRORS`) retries the job — the retry restores the
    snapshot and loses no work.
    """


_drain_requested = False


def request_drain() -> None:
    """Ask the running checkpointed experiment to snapshot and stop."""
    global _drain_requested
    _drain_requested = True


def drain_requested() -> bool:
    return _drain_requested


def clear_drain() -> None:
    global _drain_requested
    _drain_requested = False


# ---------------------------------------------------------------------
# Experiment <-> state document
# ---------------------------------------------------------------------
def _noop() -> None:  # pragma: no cover - cancelled-event placeholder
    pass


def snapshot_experiment(experiment: Any) -> dict:
    """Encode a live experiment into a pickle-ready state document.

    Read-only: the experiment can keep running afterwards, and a run
    that snapshots is byte-identical to one that does not.
    """
    sim: Simulator = experiment.sim
    owners = experiment._checkpoint_owners()
    keys_by_id = {id(obj): key for key, obj in owners.items()}

    def encode_event_ref(event: Event, path: str) -> statedict.EventRef:
        if event._owner is not sim:
            raise statedict.SnapshotError(
                f"dangling event reference at {path} (event already "
                f"popped from the heap)")
        return statedict.EventRef(event.seq)

    ctx = statedict.EncodeContext(event_type=Event,
                                  encode_event=encode_event_ref)

    def encode_entry(time: int, seq: int, event: Event) -> tuple:
        callback = event.callback
        owner = getattr(callback, "__self__", None)
        if owner is None:
            raise statedict.SnapshotError(
                f"heap event seq={seq} has a non-method callback "
                f"{callback!r}; schedule bound methods with args")
        key = keys_by_id.get(id(owner))
        if key is None:
            raise statedict.SnapshotError(
                f"heap event seq={seq} callback {callback!r} is bound "
                f"to an unregistered owner {type(owner).__name__}")
        args = statedict.encode_value(event.args, ctx,
                                      f"$.heap[{seq}].args")
        return (time, seq, bool(event.cancelled), key,
                callback.__name__, args)

    flows = []
    for handle in experiment.flows:
        flows.append({
            "rnti": handle.spec.rnti,
            "scheme": handle.spec.scheme,
            "sender": statedict.snapshot_object(
                handle.sender, ctx, "$.sender"),
            "receiver": statedict.snapshot_object(
                handle.receiver, ctx, "$.receiver"),
            "monitor": (statedict.snapshot_object(
                handle.monitor, ctx, "$.monitor")
                if handle.monitor is not None else None),
            "egress": (statedict.snapshot_object(
                handle.egress, ctx, "$.egress")
                if handle.egress is not None else None),
            "uplink": statedict.snapshot_object(
                handle.uplink, ctx, "$.uplink"),
            "impaired": (statedict.snapshot_object(
                handle.impaired_pipe, ctx, "$.impaired")
                if handle.impaired_pipe is not None else None),
            "lossy": {
                cell: statedict.snapshot_object(lossy, ctx, "$.lossy")
                for cell, lossy in handle.lossy_decoders.items()},
        })
    shared = [{
        "link": statedict.snapshot_object(link, ctx, "$.shared.link"),
        "demux": statedict.snapshot_object(link.sink, ctx,
                                           "$.shared.demux"),
    } for link in experiment._shared_links]

    return {
        "sim": sim.snapshot_state(encode_entry),
        "network": statedict.snapshot_object(
            experiment.network, ctx, "$.network"),
        "flows": flows,
        "shared": shared,
    }


def restore_experiment(experiment: Any, doc: dict) -> None:
    """Restore a state document onto a freshly rebuilt experiment.

    The experiment must have been reconstructed from the same scenario
    and flow specs (same construction order) as the snapshotted one —
    exactly what re-running the job does.  Wiring (simulator
    references, callbacks, config) is kept from the rebuild; state is
    overwritten in place so identities captured by heap callbacks and
    closures stay valid.
    """
    sim: Simulator = experiment.sim
    if len(doc["flows"]) != len(experiment.flows):
        raise statedict.SnapshotError(
            f"snapshot has {len(doc['flows'])} flows, rebuilt "
            f"experiment has {len(experiment.flows)}")
    if len(doc["shared"]) != len(experiment._shared_links):
        raise statedict.SnapshotError("shared-link count mismatch")

    # Pass 1: placeholder events so EventRef attrs (pacing/RTO timers)
    # can resolve before callbacks are bound.
    pending: list[tuple[Event, tuple]] = []
    seq_map: dict[int, Event] = {}

    def make_event(raw: tuple) -> Event:
        time, seq, cancelled = raw[0], raw[1], raw[2]
        event = Event(time, seq, _noop, ())
        event.cancelled = cancelled
        seq_map[seq] = event
        pending.append((event, raw))
        return event

    sim.restore_state(doc["sim"], make_event)
    dctx = statedict.DecodeContext(
        decode_event=lambda ref: seq_map[ref.seq])

    # Pass 2: state (this also materializes users the rebuilt network
    # lacks — e.g. metro background churn — and drops rebuilt-only
    # ones, because the in-place dict restore mirrors snapshot keys).
    statedict.restore_into(experiment.network, doc["network"], dctx)
    for handle, fstate in zip(experiment.flows, doc["flows"]):
        if handle.spec.rnti != fstate["rnti"] \
                or handle.spec.scheme != fstate["scheme"]:
            raise statedict.SnapshotError(
                f"flow mismatch: snapshot ({fstate['scheme']}, rnti "
                f"{fstate['rnti']}) vs spec ({handle.spec.scheme}, "
                f"rnti {handle.spec.rnti})")
        statedict.restore_into(handle.sender, fstate["sender"], dctx)
        statedict.restore_into(handle.receiver, fstate["receiver"], dctx)
        if fstate["monitor"] is not None:
            statedict.restore_into(handle.monitor, fstate["monitor"],
                                   dctx)
        if fstate["egress"] is not None:
            statedict.restore_into(handle.egress, fstate["egress"], dctx)
        statedict.restore_into(handle.uplink, fstate["uplink"], dctx)
        if fstate["impaired"] is not None:
            statedict.restore_into(handle.impaired_pipe,
                                   fstate["impaired"], dctx)
        for cell, lstate in fstate["lossy"].items():
            statedict.restore_into(handle.lossy_decoders[cell], lstate,
                                   dctx)
    for link, sstate in zip(experiment._shared_links, doc["shared"]):
        statedict.restore_into(link, sstate["link"], dctx)
        statedict.restore_into(link.sink, sstate["demux"], dctx)

    # Pass 3: bind heap callbacks now that every owner (including
    # dynamically materialized users) exists.
    owners = experiment._checkpoint_owners()
    for event, raw in pending:
        _time, seq, cancelled, key, name, args = raw
        owner = owners.get(key)
        if owner is None:
            if cancelled:
                # A dead entry whose owner no longer exists (e.g. a
                # departed user): it only occupies heap space until
                # popped or compacted; never fires.
                continue
            raise statedict.SnapshotError(
                f"heap event seq={seq} targets unknown owner {key!r}")
        event.callback = getattr(owner, name)
        event.args = statedict.decode_value(args, dctx)


# ---------------------------------------------------------------------
# On-disk snapshot files
# ---------------------------------------------------------------------
class SnapshotCorrupt(Exception):
    """A snapshot file failed validation (checksum/schema/truncation)."""


class _RestrictedUnpickler(pickle.Unpickler):
    """Only admits state-dict markers, identity records and numpy."""

    _NUMPY_NAMES = frozenset(
        {"_reconstruct", "ndarray", "dtype", "scalar", "_frombuffer"})
    _MARKERS = frozenset(
        {"ObjState", "ObjRef", "NpRngState", "PyRngState", "EventRef"})

    def find_class(self, module: str, name: str):
        if module == "collections" and name == "deque":
            import collections
            return collections.deque
        if module == "array" and name in ("array", "_array_reconstructor"):
            import array
            return getattr(array, name)
        if module.partition(".")[0] == "numpy" \
                and name in self._NUMPY_NAMES:
            import importlib
            return getattr(importlib.import_module(module), name)
        if module == "repro.statedict" and name in self._MARKERS:
            return getattr(statedict, name)
        for cls in statedict.identity_types():
            if module == cls.__module__ and name == cls.__qualname__:
                return cls
        raise pickle.UnpicklingError(
            f"snapshot payload references forbidden {module}.{name}")


def snapshot_path(directory: "str | Path", subframe: int) -> Path:
    return Path(directory) / f"ckpt-{subframe:010d}{SNAPSHOT_SUFFIX}"


def write_snapshot(directory: "str | Path", subframe: int,
                   doc: dict) -> Path:
    """Persist one snapshot crash-consistently; returns its path."""
    payload = pickle.dumps(doc, protocol=4)
    header = json.dumps(
        {"schema": SCHEMA, "code": code_id(), "subframe": subframe,
         "length": len(payload),
         "sha256": hashlib.sha256(payload).hexdigest()},
        sort_keys=True, separators=(",", ":")).encode("ascii")
    final = snapshot_path(directory, subframe)
    write_bytes_atomic(final, header + b"\n" + payload)
    return final


def read_snapshot(path: "str | Path") -> tuple[int, dict]:
    """Validate and load one snapshot file -> (subframe, document).

    Raises :class:`SnapshotCorrupt` on any integrity failure.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SnapshotCorrupt(f"unreadable: {exc}") from exc
    header_bytes, sep, payload = blob.partition(b"\n")
    if not sep:
        raise SnapshotCorrupt("missing header line")
    try:
        header = json.loads(header_bytes)
    except (ValueError, RecursionError) as exc:
        raise SnapshotCorrupt(f"bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise SnapshotCorrupt(f"unknown schema {header!r}")
    if header.get("code") != code_id():
        raise SnapshotCorrupt(
            f"written by code {header.get('code')!r}, not this code "
            f"{code_id()!r}")
    subframe = header.get("subframe")
    if type(subframe) is not int \
            or snapshot_path(path.parent, subframe) != path:
        raise SnapshotCorrupt(
            f"header subframe {subframe!r} does not name {path.name}")
    length = header.get("length")
    if type(length) is not int or len(payload) != length:
        raise SnapshotCorrupt(
            f"truncated payload: {len(payload)} bytes, header says "
            f"{length!r}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise SnapshotCorrupt("checksum mismatch")
    try:
        doc = _RestrictedUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        raise SnapshotCorrupt(f"payload does not unpickle: {exc}") \
            from exc
    if not isinstance(doc, dict) or "sim" not in doc:
        raise SnapshotCorrupt("payload is not a snapshot document")
    return subframe, doc


def quarantine_snapshot(path: Path, reason: str) -> Path:
    """Rename a corrupt snapshot aside so it is never retried."""
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - already gone
        return path
    logger.warning("quarantined corrupt checkpoint %s (%s)", path,
                   reason)
    return target


def count_quarantined(directory: "str | Path") -> int:
    """Quarantined snapshot files under ``directory`` (recursive)."""
    root = Path(directory)
    if not root.is_dir():
        return 0
    return sum(1 for _ in root.rglob(f"*{QUARANTINE_SUFFIX}"))


# ---------------------------------------------------------------------
# Checkpoint manager
# ---------------------------------------------------------------------
@dataclass
class CheckpointConfig:
    """Where and how often to snapshot one job's run.

    ``kill_at_subframe`` is the chaos hook: the run loop persists a
    boundary snapshot at that subframe and then SIGKILLs its own
    process — the retried job restores the snapshot and must finish
    byte-identical to an uninterrupted run.

    ``wall_budget`` caps the amortized wall-clock fraction spent
    saving snapshots (see :data:`DEFAULT_WALL_BUDGET`); ``None`` or
    ``0`` disables the throttle and saves at every eligible boundary
    (tests that assert exact snapshot sets rely on that).
    """

    directory: str
    interval_subframes: int = DEFAULT_INTERVAL_SUBFRAMES
    kill_at_subframe: Optional[int] = None
    wall_budget: Optional[float] = DEFAULT_WALL_BUDGET

    def to_dict(self) -> dict:
        out: dict = {"dir": self.directory,
                     "interval_subframes": self.interval_subframes}
        if self.kill_at_subframe is not None:
            out["kill_at_subframe"] = self.kill_at_subframe
        if self.wall_budget != DEFAULT_WALL_BUDGET:
            out["wall_budget"] = self.wall_budget
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CheckpointConfig":
        return cls(directory=data["dir"],
                   interval_subframes=data.get(
                       "interval_subframes",
                       DEFAULT_INTERVAL_SUBFRAMES),
                   kill_at_subframe=data.get("kill_at_subframe"),
                   wall_budget=data.get("wall_budget",
                                        DEFAULT_WALL_BUDGET))


class CheckpointManager:
    """Drives the snapshot/restore cycle for one experiment run."""

    def __init__(self, config: CheckpointConfig) -> None:
        if config.interval_subframes < 1:
            raise ValueError("checkpoint interval must be >= 1 subframe")
        self.config = config
        self.saved = 0
        self.quarantined = 0
        self.restored_subframe: Optional[int] = None
        #: Wall-clock bookkeeping for the amortization throttle.
        self._last_save_end: Optional[float] = None
        self._save_cost = 0.0

    # -- persistence ---------------------------------------------------
    def save(self, experiment: Any) -> Path:
        start = time.monotonic()
        subframe = experiment.sim.now // SUBFRAME_US
        doc = snapshot_experiment(experiment)
        path = write_snapshot(self.config.directory, subframe, doc)
        self.saved += 1
        end = time.monotonic()
        # Latest cost, not an average: snapshot size (and so cost)
        # grows monotonically with accumulated run state.
        self._save_cost = end - start
        self._last_save_end = end
        return path

    def _should_save(self) -> bool:
        """Throttle boundary saves to the amortized wall budget."""
        budget = self.config.wall_budget
        if not budget:
            return True
        if self._last_save_end is None:
            return True  # first eligible boundary: establish the cost
        elapsed = time.monotonic() - self._last_save_end
        return elapsed * budget >= self._save_cost * (1.0 - budget)

    def try_restore(self, experiment: Any) -> Optional[int]:
        """Restore the newest valid snapshot, quarantining bad ones.

        Returns the restored subframe, or ``None`` (from-scratch run)
        when no usable snapshot exists.
        """
        root = Path(self.config.directory)
        if not root.is_dir():
            return None
        candidates = sorted(root.glob(f"ckpt-*{SNAPSHOT_SUFFIX}"),
                            reverse=True)
        for path in candidates:
            try:
                subframe, doc = read_snapshot(path)
            except SnapshotCorrupt as exc:
                quarantine_snapshot(path, str(exc))
                self.quarantined += 1
                continue
            restore_experiment(experiment, doc)
            self.restored_subframe = subframe
            logger.info("restored checkpoint %s (subframe %d)",
                        path.name, subframe)
            return subframe
        return None

    # -- run loop ------------------------------------------------------
    def run_to(self, experiment: Any, end_us: int) -> None:
        """Run the experiment to ``end_us``, snapshotting on cadence.

        Byte-identical to a single ``sim.run(until_us=end_us)``:
        segments split the same continuous timeline and snapshotting
        only reads state.
        """
        sim: Simulator = experiment.sim
        interval_us = self.config.interval_subframes * SUBFRAME_US
        kill_us: Optional[int] = None
        if self.config.kill_at_subframe is not None:
            kill_us = self.config.kill_at_subframe * SUBFRAME_US
            if kill_us <= sim.now:
                kill_us = None  # already past it (restored run)
        while sim.now < end_us:
            target = min(end_us,
                         (sim.now // interval_us + 1) * interval_us)
            if kill_us is not None and sim.now < kill_us:
                target = min(target, kill_us)
            sim.run(until_us=target)
            if kill_us is not None and sim.now >= kill_us:
                # Chaos fault: persist the boundary snapshot, then die
                # the hard way — the retry must resume, not restart.
                self.save(experiment)
                os.kill(os.getpid(), signal.SIGKILL)
            if sim.now >= end_us:
                break
            if drain_requested():
                # Preemption must persist a restore point regardless of
                # the amortization budget — losing work is the one
                # thing a drain exists to prevent.
                self.save(experiment)
                raise CheckpointDrain(
                    f"drained at subframe {sim.now // SUBFRAME_US} "
                    f"after snapshot")
            if self._should_save():
                self.save(experiment)
