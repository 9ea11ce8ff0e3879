"""ExecBackend abstraction: pool veneer equivalence + the job wire.

The backend refactor's contract is that routing jobs through an
explicit :class:`ProcessPoolBackend` changes *nothing* about results,
and that any fleet-capable job survives a JSON round trip with its
fingerprint (the key for leases, results and the cache) intact.
"""

import concurrent.futures
import json

import pytest

from repro.exec import (
    Job,
    ParallelRunner,
    ProbeJob,
    ProcessPoolBackend,
    canonical_json,
    execute_job,
    job_from_wire,
    job_to_wire,
    wire_kind_of,
)
from repro.harness import Scenario
from repro.phy.carrier import CarrierConfig


def tiny_scenario(seed=7, **overrides):
    base = dict(name=f"backend-{seed}",
                carriers=[CarrierConfig(0, 10.0)],
                aggregated_cells=1, mean_sinr_db=14.0,
                duration_s=1.0, seed=seed)
    base.update(overrides)
    return Scenario(**base)


def pool_works() -> bool:
    try:
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


def json_round_trip(wire: dict) -> dict:
    """What a fleet queue file does to a wire entry."""
    return json.loads(json.dumps(wire))


# ---------------------------------------------------------------------
# Wire format.

def test_flow_job_wire_round_trip_preserves_fingerprint():
    job = Job(tiny_scenario(seed=11), "pbe",
              spec_overrides={"start_s": 0.25})
    wire = json_round_trip(job_to_wire(job))
    rebuilt = job_from_wire(wire)
    assert isinstance(rebuilt, Job)
    assert rebuilt.fingerprint() == job.fingerprint()
    assert rebuilt.label == job.label
    assert wire["fingerprint"] == job.fingerprint()


def test_flow_job_wire_survives_tuple_and_int_key_fields():
    # JSON turns tuples into lists and int dict keys into strings;
    # the wire loader must hand execution back the original shapes.
    job = Job(tiny_scenario(
        seed=12, background_rate_range=(2e6, 8e6),
        control_arrivals_by_cell={0: 40.0}), "bbr")
    rebuilt = job_from_wire(json_round_trip(job_to_wire(job)))
    assert rebuilt.fingerprint() == job.fingerprint()
    assert rebuilt.scenario.background_rate_range == (2e6, 8e6)
    assert list(rebuilt.scenario.control_arrivals_by_cell) == [0]


def test_flow_job_wire_execution_is_byte_identical():
    job = Job(tiny_scenario(seed=13), "pbe")
    rebuilt = job_from_wire(json_round_trip(job_to_wire(job)))
    assert canonical_json(execute_job(rebuilt)) \
        == canonical_json(execute_job(job))


def test_probe_job_wire_round_trip_and_execution():
    job = ProbeJob(params={"id": "a", "value": 3})
    rebuilt = job_from_wire(json_round_trip(job_to_wire(job)))
    assert rebuilt.fingerprint() == job.fingerprint()
    assert execute_job(rebuilt) == {"probe": "a", "value": 3}


def test_probe_job_failure_raises():
    with pytest.raises(RuntimeError, match="asked to fail"):
        ProbeJob(params={"id": "x", "fail": True}).execute()


def test_unregistered_job_type_is_rejected():
    class Mystery:
        pass

    assert wire_kind_of(Mystery()) is None
    with pytest.raises(TypeError, match="no registered wire kind"):
        job_to_wire(Mystery())


def test_unknown_wire_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown wire job kind"):
        job_from_wire({"kind": "nope", "spec": {}})


# ---------------------------------------------------------------------
# ProcessPoolBackend: thin veneer, identical results.

def test_pool_backend_runs_probe_jobs():
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    backend = ProcessPoolBackend(workers=2)
    try:
        handles = [backend.submit(ProbeJob(params={"id": i,
                                                   "value": i * 10}))
                   for i in range(3)]
        pending = set(handles)
        out = {}
        while pending:
            done = backend.wait(pending, timeout=60)
            for handle in done:
                payload = backend.result(handle)
                out[payload["probe"]] = payload["value"]
                assert backend.done(handle)
            pending -= done
        assert out == {0: 0, 1: 10, 2: 20}
    finally:
        backend.shutdown()


def test_runner_with_explicit_pool_backend_matches_default():
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    jobs = [Job(tiny_scenario(seed=21), "pbe"),
            Job(tiny_scenario(seed=22), "bbr")]
    default = ParallelRunner(jobs=2).run(jobs)
    explicit = ParallelRunner(
        jobs=2, backend=ProcessPoolBackend(workers=2)).run(jobs)
    for a, b in zip(default, explicit):
        assert canonical_json(a) == canonical_json(b)


def test_exec_elapsed_defaults_to_submitted_elapsed():
    backend = ProcessPoolBackend.__new__(ProcessPoolBackend)
    assert backend.exec_elapsed(object(), 3.5) == 3.5
