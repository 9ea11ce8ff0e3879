"""Generic state-dict codec for crash-consistent snapshots.

Checkpointing (see :mod:`repro.harness.checkpoint`) never pickles live
simulation objects directly — objects hold references to the simulator,
to each other and to scheduled events, and a naive pickle would either
fail or silently duplicate shared state.  Instead, every snapshotted
class is *registered* here and encoded as a versioned state tree:

* primitives (``None``/``bool``/``int``/``float``/``str``/``bytes``)
  pass through unchanged;
* containers (``list``/``tuple``/``dict``/``set``/``frozenset``/
  ``deque``/``numpy.ndarray``/``array.array``) recurse over their
  elements (the flat numeric ones copy wholesale);
* registered classes become an :class:`ObjState` marker carrying the
  registry name and an attribute dictionary (``__dict__`` or
  ``__slots__``), minus names listed in the class's ``SNAPSHOT_SKIP``;
* *identity types* (plain data records such as ``Packet`` or
  ``TransportBlock``) ride through the tree as live objects — the whole
  snapshot is pickled as **one** document, so pickle memoization
  preserves aliasing (the same packet queued on a link and referenced
  from a HARQ process decodes back to one shared object);
* RNG streams (``numpy.random.Generator``, ``random.Random``) become
  bit-exact state markers;
* scheduled :class:`repro.net.sim.Event` references are delegated to a
  caller-supplied event codec (the checkpoint layer encodes them as
  heap sequence numbers);
* anything else — callables, open files, unregistered classes —
  **raises** with the offending attribute path, so forgetting a
  ``SNAPSHOT_SKIP`` entry is a loud error instead of a corrupt
  snapshot.

Decoding is two-mode: :func:`materialize` builds a fresh object via
``cls.__new__`` + ``setattr`` (used for dynamically created users whose
rebuilt experiment has no counterpart), while :func:`restore_into`
restores **in place** when the rebuilt object already exists —
recursing into matching sub-objects and mutating matching containers
(``clear`` + refill) rather than replacing them, so identities captured
elsewhere (bound methods in the event heap, closure-captured buffers)
stay valid.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

#: Class attribute naming instance attributes excluded from snapshots
#: (simulator/back-references, config objects restored from the rebuilt
#: experiment, callables).  Unioned across the MRO.
SKIP_ATTR = "SNAPSHOT_SKIP"

#: Registry of snapshot-able classes: name -> class.
STATE_TYPES: dict[str, type] = {}
#: Reverse map for encoding (exact type match only — no subclasses).
_TYPE_NAMES: dict[type, str] = {}
#: Data-record classes allowed to ride through the tree as-is.
_IDENTITY_TYPES: tuple = ()
_IDENTITY_SET: set = set()

_PRIMITIVES = (type(None), bool, int, float, str, bytes)


class SnapshotError(TypeError):
    """A value in the state tree cannot be encoded or decoded."""


def register_state_type(cls: type, name: Optional[str] = None) -> type:
    """Register ``cls`` for :class:`ObjState` encoding (idempotent)."""
    key = name or cls.__name__
    existing = STATE_TYPES.get(key)
    if existing is not None and existing is not cls:
        raise ValueError(f"state-type name collision: {key!r}")
    STATE_TYPES[key] = cls
    _TYPE_NAMES[cls] = key
    return cls


def register_identity_type(cls: type) -> type:
    """Register a data-record class that rides through snapshots as-is."""
    global _IDENTITY_TYPES
    if cls not in _IDENTITY_SET:
        _IDENTITY_SET.add(cls)
        _IDENTITY_TYPES = tuple(_IDENTITY_SET)
    return cls


def identity_types() -> tuple:
    """The registered identity classes (for unpickler allow-listing)."""
    return _IDENTITY_TYPES


# ---------------------------------------------------------------------
# Markers (plain slotted classes so they pickle compactly and cannot be
# confused with user data, which is never an instance of these).
# ---------------------------------------------------------------------
class ObjState:
    """Encoded registered object: registry name + attribute dict.

    ``oid`` numbers the first encoding of each distinct live object so
    later occurrences can be emitted as :class:`ObjRef` — an object
    aliased from two places (e.g. one channel shared by two users)
    decodes back to **one** object.
    """

    __slots__ = ("type_name", "attrs", "oid")

    def __init__(self, type_name: str, attrs: dict,
                 oid: Optional[int] = None) -> None:
        self.type_name = type_name
        self.attrs = attrs
        self.oid = oid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjState({self.type_name}, {sorted(self.attrs)})"


class ObjRef:
    """Back-reference to an already-encoded registered object."""

    __slots__ = ("oid",)

    def __init__(self, oid: int) -> None:
        self.oid = oid


class NpRngState:
    """Bit-exact ``numpy.random.Generator`` state."""

    __slots__ = ("state",)

    def __init__(self, state: dict) -> None:
        self.state = state


class PyRngState:
    """Bit-exact ``random.Random`` state."""

    __slots__ = ("state",)

    def __init__(self, state: tuple) -> None:
        self.state = state


class EventRef:
    """Reference to a queued simulator event, by heap sequence number."""

    __slots__ = ("seq",)

    def __init__(self, seq: int) -> None:
        self.seq = seq


# ---------------------------------------------------------------------
# Attribute walking
# ---------------------------------------------------------------------
def _skip_set(cls: type) -> frozenset:
    skips = set()
    for klass in cls.__mro__:
        skips.update(klass.__dict__.get(SKIP_ATTR, ()))
    return frozenset(skips)


def _slot_names(cls: type) -> list[str]:
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(s for s in slots if s not in ("__dict__", "__weakref__"))
    return names


def object_attrs(obj: Any) -> dict:
    """Snapshot-relevant attributes of a registered object."""
    skips = _skip_set(type(obj))
    attrs: dict = {}
    if hasattr(obj, "__dict__"):
        for name, value in vars(obj).items():
            if name not in skips:
                attrs[name] = value
    for name in _slot_names(type(obj)):
        if name in skips or name in attrs:
            continue
        try:
            attrs[name] = getattr(obj, name)
        except AttributeError:
            continue  # slot never assigned
    return attrs


# ---------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------
class EncodeContext:
    """Hooks the checkpoint layer supplies to the generic encoder."""

    def __init__(self, event_type: Optional[type] = None,
                 encode_event: Optional[Callable[[Any, str], Any]] = None,
                 ) -> None:
        self.event_type = event_type
        self.encode_event = encode_event
        #: ``id(obj) -> oid`` for already-encoded registered objects.
        self.memo: dict[int, int] = {}
        #: Strong refs so ids in ``memo`` cannot be recycled mid-encode.
        self.memo_refs: list = []
        self.next_oid = 0


#: Exact types whose values encode (and decode) as themselves. Large
#: homogeneous containers of these — packet timestamp lists, rate
#: deques — are the bulk of a busy snapshot, so the container branches
#: below skip per-element recursion when every element is scalar.
_SCALAR_TYPES = frozenset((bool, type(None), int, float, str, bytes))


def _all_scalar(seq: Any) -> bool:
    return all(type(v) in _SCALAR_TYPES for v in seq)


def _shallow_data(seq: Any) -> bool:
    """True when every element is a scalar or a tuple of scalars.

    Such containers copy in one pass; the scalar tuples are immutable,
    so sharing them between the live object and the snapshot is safe.
    """
    return all(type(v) in _SCALAR_TYPES
               or (type(v) is tuple and _all_scalar(v))
               for v in seq)


def encode_value(value: Any, ctx: Optional[EncodeContext] = None,
                 path: str = "$") -> Any:
    """Encode one value into the pickle-safe state tree."""
    if ctx is None:
        ctx = EncodeContext()
    if isinstance(value, bool) or value is None:
        return value
    tp = type(value)
    if tp in (int, float, str, bytes):
        return value
    if _IDENTITY_TYPES and isinstance(value, _IDENTITY_TYPES):
        return value
    if tp is list:
        if _shallow_data(value):
            return value.copy()
        return [encode_value(v, ctx, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if tp is tuple:
        if _shallow_data(value):
            return value
        return tuple(encode_value(v, ctx, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if tp is dict:
        out = {}
        for key, v in value.items():
            _check_key(key, path)
            out[key] = (v if type(v) in _SCALAR_TYPES
                        else encode_value(v, ctx, f"{path}[{key!r}]"))
        return out
    if tp is deque:
        if _shallow_data(value):
            return deque(value, maxlen=value.maxlen)
        return deque((encode_value(v, ctx, f"{path}[{i}]")
                      for i, v in enumerate(value)), maxlen=value.maxlen)
    if tp in (set, frozenset):
        for v in value:
            _check_key(v, path)
        return tp(value)
    if tp is np.ndarray:
        return value.copy()
    if tp is array:
        return array(value.typecode, value)
    if isinstance(value, np.generic):
        return value
    if tp is np.random.Generator:
        return NpRngState(value.bit_generator.state)
    if tp is random.Random:
        return PyRngState(value.getstate())
    if ctx.event_type is not None and tp is ctx.event_type:
        return ctx.encode_event(value, path)
    name = _TYPE_NAMES.get(tp)
    if name is not None:
        return snapshot_object(value, ctx, path)
    raise SnapshotError(
        f"cannot snapshot {tp.__name__} at {path} — register the type, "
        f"add it to SNAPSHOT_SKIP, or make it an identity type")


def _check_key(key: Any, path: str) -> None:
    """Dict keys / set members must be plain hashable data."""
    if isinstance(key, _PRIMITIVES):
        return
    if isinstance(key, tuple):
        for part in key:
            _check_key(part, path)
        return
    raise SnapshotError(
        f"unsupported dict key / set member {type(key).__name__} at {path}")


def snapshot_object(obj: Any, ctx: Optional[EncodeContext] = None,
                    path: str = "$") -> Any:
    """Encode a registered object (attribute walk minus skips).

    Returns an :class:`ObjRef` when this exact object was already
    encoded through the same context (aliasing preserved on decode).
    """
    if ctx is None:
        ctx = EncodeContext()
    name = _TYPE_NAMES.get(type(obj))
    if name is None:
        raise SnapshotError(
            f"{type(obj).__name__} at {path} is not a registered "
            f"state type")
    prior = ctx.memo.get(id(obj))
    if prior is not None:
        return ObjRef(prior)
    oid = ctx.next_oid
    ctx.next_oid = oid + 1
    ctx.memo[id(obj)] = oid
    ctx.memo_refs.append(obj)
    attrs = {
        attr: encode_value(value, ctx, f"{path}.{attr}")
        for attr, value in object_attrs(obj).items()
    }
    return ObjState(name, attrs, oid)


# ---------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------
class DecodeContext:
    """Hooks the checkpoint layer supplies to the generic decoder."""

    def __init__(self,
                 decode_event: Optional[Callable[[EventRef], Any]] = None,
                 ) -> None:
        self.decode_event = decode_event
        #: ``oid -> decoded object`` for alias resolution.
        self.objects: dict[int, Any] = {}


def decode_value(value: Any, ctx: Optional[DecodeContext] = None) -> Any:
    """Decode one state-tree value into a live object (fresh build)."""
    if ctx is None:
        ctx = DecodeContext()
    tp = type(value)
    if tp is ObjState:
        return materialize(value, ctx)
    if tp is ObjRef:
        try:
            return ctx.objects[value.oid]
        except KeyError:
            raise SnapshotError(
                f"dangling object back-reference (oid {value.oid})"
            ) from None
    if tp is NpRngState:
        rng = np.random.default_rng()
        rng.bit_generator.state = value.state
        return rng
    if tp is PyRngState:
        rng = random.Random()
        rng.setstate(value.state)
        return rng
    if tp is EventRef:
        if ctx.decode_event is None:
            raise SnapshotError("EventRef outside an event-aware decode")
        return ctx.decode_event(value)
    if tp is list:
        if _shallow_data(value):
            return value.copy()
        return [decode_value(v, ctx) for v in value]
    if tp is tuple:
        if _shallow_data(value):
            return value
        return tuple(decode_value(v, ctx) for v in value)
    if tp is dict:
        return {k: (v if type(v) in _SCALAR_TYPES else decode_value(v, ctx))
                for k, v in value.items()}
    if tp is deque:
        if _shallow_data(value):
            return deque(value, maxlen=value.maxlen)
        return deque((decode_value(v, ctx) for v in value),
                     maxlen=value.maxlen)
    if tp is array:
        return array(value.typecode, value)
    return value


def materialize(state: ObjState,
                ctx: Optional[DecodeContext] = None) -> Any:
    """Build a fresh instance of a registered type from its state."""
    if ctx is None:
        ctx = DecodeContext()
    cls = STATE_TYPES.get(state.type_name)
    if cls is None:
        raise SnapshotError(f"unknown state type {state.type_name!r}")
    obj = cls.__new__(cls)
    if state.oid is not None:
        ctx.objects[state.oid] = obj
    for attr, value in state.attrs.items():
        setattr(obj, attr, decode_value(value, ctx))
    finalize = getattr(obj, "_after_restore", None)
    if finalize is not None:
        finalize()
    return obj


def restore_into(obj: Any, state: ObjState,
                 ctx: Optional[DecodeContext] = None) -> Any:
    """Restore ``state`` onto an existing object, in place.

    The rebuilt object keeps its identity (and its skipped attributes —
    simulator references, callbacks, config).  Sub-objects of matching
    registered type are recursed into rather than replaced, and
    matching containers are mutated in place, so references held by the
    event heap or by closures stay valid.
    """
    if ctx is None:
        ctx = DecodeContext()
    cls = STATE_TYPES.get(state.type_name)
    if cls is None:
        raise SnapshotError(f"unknown state type {state.type_name!r}")
    if type(obj) is not cls:
        raise SnapshotError(
            f"restore type mismatch: snapshot has {state.type_name}, "
            f"live object is {type(obj).__name__}")
    if state.oid is not None:
        ctx.objects[state.oid] = obj
    for attr, value in state.attrs.items():
        existing = getattr(obj, attr, None)
        setattr(obj, attr, _restore_value(existing, value, ctx))
    finalize = getattr(obj, "_after_restore", None)
    if finalize is not None:
        finalize()
    return obj


def _restore_value(existing: Any, value: Any, ctx: DecodeContext) -> Any:
    """Decode ``value``, reusing ``existing`` in place when possible."""
    tp = type(value)
    if tp is ObjState:
        cls = STATE_TYPES.get(value.type_name)
        if cls is not None and type(existing) is cls:
            return restore_into(existing, value, ctx)
        return materialize(value, ctx)
    if tp is list and type(existing) is list:
        decoded = [decode_value(v, ctx) for v in value]
        existing[:] = decoded
        return existing
    if tp is deque and type(existing) is deque \
            and existing.maxlen == value.maxlen:
        existing.clear()
        existing.extend(decode_value(v, ctx) for v in value)
        return existing
    if tp is dict and type(existing) is dict:
        out = {}
        for key, v in value.items():
            prior = existing.get(key)
            out[key] = _restore_value(prior, v, ctx)
        existing.clear()
        existing.update(out)
        return existing
    if tp is set and type(existing) is set:
        existing.clear()
        existing.update(value)
        return existing
    if tp is array and type(existing) is array \
            and existing.typecode == value.typecode:
        existing[:] = value
        return existing
    return decode_value(value, ctx)
