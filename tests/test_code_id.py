"""The code id: every cache key and snapshot names the code that wrote it.

A job's fingerprint digests its inputs *and* the package source
(:func:`repro.harness.serialize.code_id`), and a snapshot header carries
the same id, so nothing one tree computed is ever served to, or
restored into, another.  A one-byte comment edit is enough to part two
trees; a bare JSON object filed under a fingerprint is never served.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec import FleetWorker, ProbeJob, ResultStore, job_to_wire
from repro.exec.fleet import QUEUE_DIR, RESULT_DIR
from repro.harness import Experiment, FlowSpec, Scenario, serialize
from repro.harness.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    SnapshotCorrupt,
    read_snapshot,
    write_snapshot,
)

PACKAGE = Path(repro.__file__).resolve().parent

#: Prints the code id and one flow and one metro-shard fingerprint.
PROBE = """
from repro.exec import Job
from repro.harness import Scenario
from repro.harness.serialize import code_id
from repro.metro import shard_jobs
from repro.metro.sets import metro_scenario_sets
print(code_id())
print(Job(Scenario(name="c", duration_s=1.0, seed=3), "pbe").fingerprint())
print(shard_jobs(metro_scenario_sets()["smoke"])[0].fingerprint())
"""


def _ids_of_copy(root: Path, edit=None) -> list:
    """The :data:`PROBE` lines for a copy of the package under ``root``."""
    copy = root / "repro"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        edit(copy)
    env = dict(os.environ, PYTHONPATH=str(root))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.split()


def _flip_one_comment_byte(copy: Path) -> None:
    path = copy / "exec" / "fleet.py"
    text = path.read_text()
    at = text.index("# ") + 2
    path.write_text(text[:at] + ("X" if text[at] != "X" else "Y")
                    + text[at + 1:])


def test_one_comment_byte_parts_every_fingerprint(tmp_path):
    same = _ids_of_copy(tmp_path / "same")
    edited = _ids_of_copy(tmp_path / "edited", _flip_one_comment_byte)
    # An untouched copy elsewhere on disk is the same code ...
    assert same[0] == serialize.code_id()
    assert len(same) == len(edited) == 3
    # ... one comment byte is not: code id, flow-job and metro-shard
    # fingerprints all change.
    for before, after in zip(same, edited):
        assert before != after


def _doctor_header(path: Path, **fields) -> None:
    header, _, payload = path.read_bytes().partition(b"\n")
    doctored = {k: v for k, v in json.loads(header).items()
                if k not in fields}
    doctored.update({k: v for k, v in fields.items() if v is not None})
    path.write_bytes(json.dumps(doctored, sort_keys=True).encode()
                     + b"\n" + payload)


@pytest.mark.parametrize("header", [
    *({"code": None, "version": version} for version in range(1, 10)),
    {"code": "0" * 64},
], ids=[*(f"version-{v}" for v in range(1, 10)), "other-code"])
def test_snapshot_from_other_code_is_quarantined(tmp_path, header):
    """Versions 1-9 each changed what a snapshot's state means — wired
    packets, blocks on the air, dormant cells, the monitor's fold,
    queue and uplink layouts, a user's SINR history.  A file from any
    of them, or from any other code, is set aside, never
    half-restored, and the run starts from scratch."""
    path = write_snapshot(tmp_path, 100, {"sim": {}})
    _doctor_header(path, **header)
    with pytest.raises(SnapshotCorrupt, match="written by code"):
        read_snapshot(path)

    experiment = Experiment(Scenario(name="ck-code", duration_s=0.1,
                                     seed=5))
    experiment.add_flow(FlowSpec(scheme="bbr"))
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=50))
    assert manager.try_restore(experiment) is None
    assert manager.quarantined == 1 and experiment.sim.now == 0


def test_worker_under_other_code_refuses_the_drivers_entry(
        tmp_path, monkeypatch):
    job = ProbeJob(params={"id": "c", "value": 1})
    wire = job_to_wire(job)
    queued = wire["fingerprint"]
    (tmp_path / QUEUE_DIR).mkdir(parents=True)
    (tmp_path / QUEUE_DIR / f"{queued}.json").write_text(json.dumps(wire))

    monkeypatch.setattr(serialize, "code_id", lambda: "f" * 64)
    recomputed = job.fingerprint()
    assert recomputed != queued
    worker = FleetWorker(tmp_path, worker_id="w", poll_s=0.02,
                         max_jobs=1, log=open(os.devnull, "w"))
    assert worker.run() == 0
    text = (tmp_path / RESULT_DIR / f"{queued}.json").read_text()
    entry = json.loads(text)
    assert entry["kind"] == "failure"
    message = entry["failure"]["message"]
    assert queued in message and recomputed in message
    assert "refusing it" in message
    assert '"probe"' not in text  # the job never ran


def test_bare_json_object_under_a_fingerprint_is_quarantined(tmp_path):
    fingerprint = "ab" + "0" * 62
    store = ResultStore(tmp_path)
    path = store.path_for(fingerprint)
    path.parent.mkdir(parents=True)
    path.write_text('{"average_throughput_mbps": 14.98}')
    assert store.get(fingerprint) is None
    assert not path.exists()
    assert store.quarantine_events == 1
    log = (store.quarantine_root / "log.jsonl").read_text()
    assert json.loads(log)["reason"] == "unknown envelope schema None"
