"""Loaders fail loudly: snapshots and sealed results, fuzzed.

Whatever bytes sit on disk, :func:`repro.harness.checkpoint.read_snapshot`
either returns the document that was written or raises
:class:`SnapshotCorrupt`, and :func:`repro.exec.unseal` either returns
the payload that was sealed or raises :class:`ValueError` — each naming
the reason, which is what the quarantine logs record.  No other
exception may escape: a stray ``KeyError`` or ``RecursionError`` would
crash a resume or a sweep instead of quarantining one file.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import seal, unseal
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    SnapshotCorrupt,
    read_snapshot,
    write_snapshot,
)

SNAPSHOT_REASONS = re.compile(
    r"missing header line|bad header|unknown schema|written by code|"
    r"header subframe|truncated payload|checksum mismatch|"
    r"payload does not unpickle|payload is not a snapshot document")
SEAL_REASONS = re.compile(
    r"unparseable JSON|nested too deeply|not a JSON object|"
    r"unknown envelope schema|envelope without payload|"
    r"checksum mismatch|not in sealed form")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

DOC = {"sim": {"now": 100_000, "heap": [1, 2, 3]}, "flows": []}


def _written_snapshot(directory: Path) -> Path:
    return write_snapshot(directory, 100, DOC)


def _with_header(path: Path, header: dict) -> None:
    _, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("subframe", ["missing", None, "x", [1], True,
                                      100.0, 101])
def test_bad_header_subframe_is_quarantined_not_raised(tmp_path,
                                                       subframe):
    path = _written_snapshot(tmp_path)
    header = json.loads(path.read_bytes().partition(b"\n")[0])
    if subframe == "missing":
        del header["subframe"]
    else:
        header["subframe"] = subframe
    _with_header(path, header)
    with pytest.raises(SnapshotCorrupt, match="header"):
        read_snapshot(path)

    experiment = Experiment(Scenario(name="fuzz", duration_s=0.1, seed=2))
    experiment.add_flow(FlowSpec(scheme="bbr"))
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=50))
    assert manager.try_restore(experiment) is None
    assert manager.quarantined == 1


@FUZZ
@given(key=st.sampled_from(["code", "length", "schema", "sha256",
                            "subframe"]),
       value=JSON_VALUES, delete=st.booleans())
def test_any_header_mutation_is_named(key, value, delete):
    with tempfile.TemporaryDirectory() as directory:
        path = _written_snapshot(Path(directory))
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        mutated = dict(header)
        if delete:
            del mutated[key]
        else:
            mutated[key] = value
        if json.dumps(mutated, sort_keys=True) \
                == json.dumps(header, sort_keys=True):
            return  # not a mutation
        _with_header(path, mutated)
        with pytest.raises(SnapshotCorrupt, match=SNAPSHOT_REASONS):
            read_snapshot(path)


@FUZZ
@given(data=st.data())
def test_snapshot_round_trips_and_any_byte_flip_is_named(data):
    with tempfile.TemporaryDirectory() as directory:
        path = _written_snapshot(Path(directory))
        assert read_snapshot(path) == (100, DOC)
        blob = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] = data.draw(st.integers(0, 255).filter(
            lambda byte: byte != blob[at]), label="byte")
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorrupt, match=SNAPSHOT_REASONS):
            read_snapshot(path)


@FUZZ
@given(payload=st.dictionaries(st.text(), JSON_VALUES, max_size=6),
       data=st.data())
def test_sealed_payload_round_trips_and_any_byte_flip_is_named(payload,
                                                               data):
    raw = seal(payload)
    assert unseal(raw) == payload
    blob = bytearray(raw)
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[at] = data.draw(st.integers(0, 255).filter(
        lambda byte: byte != blob[at]), label="byte")
    with pytest.raises(ValueError, match=SEAL_REASONS):
        unseal(bytes(blob))

