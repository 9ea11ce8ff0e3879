"""Loaders fail loudly: snapshots, sealed results and scenarios, fuzzed.

Whatever bytes sit on disk, :func:`repro.harness.checkpoint.read_snapshot`
either returns the document that was written or raises
:class:`SnapshotCorrupt`, and :func:`repro.exec.unseal` either returns
the payload that was sealed or raises :class:`ValueError` — each naming
the reason, which is what the quarantine logs record.  No other
exception may escape: a stray ``KeyError`` or ``RecursionError`` would
crash a resume or a sweep instead of quarantining one file.  A scenario
(a wire job's included) or a link or channel built with a bad field
raises a :class:`ValueError` naming the field, before anything runs.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import seal, unseal
from repro.exec.backend import job_from_wire, job_to_wire
from repro.exec.job import Job
from repro.harness import Experiment, FlowSpec, Scenario
from repro.metro import GridSpec, MetroSet
from repro.net.link import Link, PacketSink
from repro.net.sim import Simulator
from repro.phy.channel import GaussMarkovChannel, StaticChannel, TraceChannel
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


# ---------------------------------------------------------------------
# Scenarios, metro sets, wire jobs, links and channels: a bad field is
# named.

BAD_SCENARIO_FIELDS = [
    ("aggregated_cells", True), ("background_users", -3),
    ("internet_delay_us", -30_000), ("internet_delay_us", 1.5),
    ("uplink_delay_us", -1), ("uplink_batch_us", 0),
    ("internet_queue_packets", 0), ("cqi_delay_subframes", -1),
    ("seed", -1), ("mean_sinr_db", math.nan), ("fading_std_db", -1.0),
    ("background_on_s", 0.0), ("background_off_s", math.inf),
    ("internet_rate_bps", math.nan), ("duration_s", math.nan),
    ("scheduler_policy", "fifo"),
    # a policy the scheduler no longer has (a stale wire job's)
    ("scheduler_policy", "proportional_fair"),
]


@pytest.mark.parametrize("name, value", BAD_SCENARIO_FIELDS)
def test_a_bad_scenario_field_is_named(name, value):
    with pytest.raises(ValueError, match=name):
        Scenario(name="bad", **{name: value})


BAD_METRO_SET_FIELDS = [
    ("hour_s", math.nan), ("hour_s", math.inf), ("hour_s", 0.0),
    ("shard_cells", 0), ("shard_cells", 2.5),
    ("walkers_per_shard", -1), ("max_users_per_cell", -1),
    ("users_scale", math.nan), ("users_scale", 0.0),
    ("hours", ()), ("hours", (3, 24)), ("hours", (3.5,)),
]


@pytest.mark.parametrize("name, value", BAD_METRO_SET_FIELDS)
def test_a_bad_metro_set_field_is_named(name, value):
    with pytest.raises(ValueError, match=name):
        MetroSet(name="bad", description="bad", grid=GridSpec(),
                 **{name: value})


def test_a_wire_job_names_its_bad_scenario_field():
    wire = json.loads(json.dumps(job_to_wire(
        Job(Scenario(name="wire", duration_s=0.1), "pbe"))))
    wire["spec"]["scenario"]["internet_delay_us"] = -30_000
    with pytest.raises(ValueError, match="bad spec: .*internet_delay_us"):
        job_from_wire(wire)


@pytest.mark.parametrize("build, name", [
    (lambda: Link(Simulator(), PacketSink(), 1e6, delay_us=-30_000),
     "delay_us"),
    (lambda: Link(Simulator(), PacketSink(), 1e6, delay_us=0.5),
     "delay_us"),
    (lambda: Link(Simulator(), PacketSink(), math.nan, delay_us=0),
     "rate_bps"),
    (lambda: StaticChannel(math.nan), "mean_sinr_db"),
    (lambda: GaussMarkovChannel(15.0, std_db=-2.0), "std_db"),
    (lambda: GaussMarkovChannel(math.nan), "mean_sinr_db"),
    (lambda: TraceChannel([(0, -80.0), (1_000, math.nan)]), "rssi_dbm"),
    (lambda: TraceChannel([(0, -80.0)], fading_std_db=-1.0),
     "fading_std_db"),
])
def test_a_bad_link_or_channel_field_is_named(build, name):
    with pytest.raises(ValueError, match=name):
        build()
