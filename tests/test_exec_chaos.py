"""Chaos harness: injected faults, byte-identical final matrices.

The acceptance bar for the fleet fabric is convergence under fire:
with a fixed :class:`ChaosSpec` seed that kills workers mid-job,
stalls heartbeats, corrupts results in transit and duplicates claims,
a fleet sweep must finish with a result matrix *byte-identical* to a
chaos-free run of the same jobs.  Each integration test below runs
one fault at probability 1 against real ``repro fleet worker``
subprocesses and asserts exactly that.
"""

import dataclasses
import json
import math
import numbers

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    ChaosSpec,
    FleetBackend,
    ParallelRunner,
    ProbeJob,
    canonical_json,
    chaos_events,
    execute_job,
)
from repro.exec.chaos import FAULT_PROBS, corrupt_bytes
from repro.exec.fleet import QUEUE_DIR, RESULT_DIR

FP = "ab" * 32


def probe(i, **extra):
    return ProbeJob(params={"id": i, "value": i * 10, **extra})


# ---------------------------------------------------------------------
# Spec units.

def test_roll_is_deterministic_and_seed_sensitive():
    spec = ChaosSpec(seed=1, kill_prob=0.5)
    assert spec.roll("kill", FP) == spec.roll("kill", FP)
    rolls = {ChaosSpec(seed=s, kill_prob=0.5).roll("kill", FP)
             for s in range(32)}
    assert rolls == {True, False}  # some seeds hit, some miss


def test_roll_probability_edges():
    assert not ChaosSpec(seed=1).roll("kill", FP)  # prob 0
    spec = ChaosSpec(seed=1, kill_prob=1.0)
    assert all(spec.roll("kill", f"{i:064x}") for i in range(20))


def test_fire_claims_each_fault_exactly_once(tmp_path):
    spec = ChaosSpec(seed=1, corrupt_prob=1.0)
    assert spec.fire(tmp_path, "corrupt", FP)
    assert not spec.fire(tmp_path, "corrupt", FP)  # marker persists
    assert spec.fire(tmp_path, "corrupt", "cd" * 32)
    assert chaos_events(tmp_path)["corrupt"] == 2


def test_spec_validation_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="probability"):
        ChaosSpec(kill_prob=1.5)
    with pytest.raises(ValueError, match="durations"):
        ChaosSpec(stall_s=-1)


def test_spec_save_load_round_trip(tmp_path):
    spec = ChaosSpec(seed=9, kill_prob=0.25, stall_prob=0.5,
                     stall_s=3.0, corrupt_prob=1.0)
    spec.save(tmp_path / "chaos.json")
    assert ChaosSpec.load(tmp_path / "chaos.json") == spec
    assert ChaosSpec.load(tmp_path / "missing.json") is None


@pytest.mark.parametrize("field,value", [
    ("stall_s", float("nan")),          # all six were accepted
    ("stall_s", float("inf")),
    ("claim_delay_s", float("nan")),
    ("kill_prob", True),
    ("seed", 1.5),
    ("seed", "x"),
    ("corrupt_prob", "0.5"),
    ("claim_delay_s", -1.0),
])
def test_spec_rejects_a_bad_value_naming_its_field(field, value):
    with pytest.raises(ValueError, match=field):
        ChaosSpec(**{field: value})


@pytest.mark.parametrize("text,named", [
    ('{"kill_prob": 2.0}', "kill_prob"),   # each loaded as None: a
    ('{"kill_prb": 1}', "kill_prb"),       # worker ran fault-free
    ("\x00\xff junk", "chaos spec .*chaos.json"),
    ("[1, 2]", "JSON object"),
])
def test_load_raises_on_a_present_but_bad_file(tmp_path, text, named):
    path = tmp_path / "chaos.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError, match=named):
        ChaosSpec.load(path)


_CHAOS_FIELDS = [f.name for f in dataclasses.fields(ChaosSpec)]
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**6), st.floats(),
    st.floats(0, 1), st.floats(0, 100), st.text(max_size=4),
    st.lists(st.integers(), max_size=2))


def _field_is_valid(name, value) -> bool:
    """The spec's contract, restated: what each field accepts."""
    if name == "seed":
        return isinstance(value, int) and not isinstance(value, bool)
    if (name not in _CHAOS_FIELDS or isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0):
        return False
    return name.endswith("_s") or value <= 1


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(_CHAOS_FIELDS + ["bogus"]),
                       _ANY_VALUE, max_size=6))
def test_spec_loader_fuzz_round_trips_or_names_the_field(data):
    """Hostile JSON: either a spec that survives ``to_dict`` → JSON →
    ``from_dict`` unchanged, or a ``ValueError`` naming a bad field."""
    bad = [name for name, value in data.items()
           if not _field_is_valid(name, value)]
    try:
        spec = ChaosSpec.from_dict(data)
    except ValueError as error:
        assert [name for name in bad if name in str(error)], error
        return
    assert not bad
    assert ChaosSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
        == spec


def test_inactive_spec_reports_inactive():
    assert not ChaosSpec(seed=3).active
    assert ChaosSpec(seed=3, duplicate_claim_prob=0.1).active
    assert set(FAULT_PROBS) == {"kill", "stall", "claim_delay",
                                "duplicate_claim", "corrupt"}


def test_corrupt_bytes_is_deterministic_and_damaging():
    payload = json.dumps({"k": list(range(50))}).encode()
    out = corrupt_bytes(payload, seed=1, fingerprint=FP)
    assert out == corrupt_bytes(payload, seed=1, fingerprint=FP)
    assert out != payload
    # Across fingerprints both damage modes (truncate, byte-flip)
    # appear, and no output round-trips to the original payload.
    shapes = set()
    for i in range(16):
        fp = f"{i:064x}"
        damaged = corrupt_bytes(payload, 1, fp)
        shapes.add(len(damaged) < len(payload))
        try:
            assert json.loads(damaged.decode()) != json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            pass  # unparseable is corrupt enough
    assert shapes == {True, False}


# ---------------------------------------------------------------------
# Integration: each fault against real worker subprocesses, asserting
# byte-identical convergence with the chaos-free run.

def chaos_free_baseline(jobs):
    return canonical_json([execute_job(job) for job in jobs])


def run_fleet(tmp_path, jobs, chaos, ttl_s=1.5, retries=3,
              timeout_s=None):
    backend = FleetBackend(tmp_path, ttl_s=ttl_s, poll_s=0.05,
                           local_workers=2, chaos=chaos)
    runner = ParallelRunner(jobs=2, backend=backend, retries=retries,
                            timeout_s=timeout_s)
    payloads = runner.run(jobs)
    return payloads, runner.stats, backend


def test_kill_worker_mid_job_converges(tmp_path):
    jobs = [probe(i) for i in range(3)]
    chaos = ChaosSpec(seed=5, kill_prob=1.0)  # every job kills once
    payloads, stats, _ = run_fleet(tmp_path, jobs, chaos)
    assert canonical_json(payloads) == chaos_free_baseline(jobs)
    assert chaos_events(tmp_path)["kill"] == 3
    assert stats.lease_reclaims >= 3  # every kill leaked a lease
    assert stats.worker_restarts >= 1  # and the driver respawned


def test_heartbeat_stall_converges(tmp_path):
    # Stall far past the TTL while the job runs: the driver must
    # reclaim, retry, and survive the stalled worker's late duplicate
    # completion.
    jobs = [probe(i, sleep_s=0.8) for i in range(2)]
    chaos = ChaosSpec(seed=6, stall_prob=1.0, stall_s=6.0)
    payloads, stats, _ = run_fleet(tmp_path, jobs, chaos, ttl_s=1.0)
    assert canonical_json(payloads) == chaos_free_baseline(jobs)
    assert chaos_events(tmp_path)["stall"] == 2


def test_corrupt_result_in_transit_converges(tmp_path):
    jobs = [probe(i) for i in range(3)]
    chaos = ChaosSpec(seed=7, corrupt_prob=1.0)
    payloads, stats, backend = run_fleet(tmp_path, jobs, chaos)
    assert canonical_json(payloads) == chaos_free_baseline(jobs)
    assert chaos_events(tmp_path)["corrupt"] == 3
    assert backend.corrupt_results == 3
    assert stats.retries >= 3
    # Quarantine keeps the damaged envelopes for diagnosis.
    assert len(list((tmp_path / "quarantine").glob("*.json"))) == 3


def test_duplicate_claim_converges(tmp_path):
    # Enough overlapping work that a worker scans a live lease, then
    # races its owner to completion; last-write-wins must hold and
    # the matrix must not change.
    jobs = [probe(i, sleep_s=0.6) for i in range(3)]
    chaos = ChaosSpec(seed=8, duplicate_claim_prob=1.0)
    payloads, stats, _ = run_fleet(tmp_path, jobs, chaos, ttl_s=5.0)
    assert canonical_json(payloads) == chaos_free_baseline(jobs)


def test_mixed_chaos_converges_and_cleans_up(tmp_path):
    jobs = [probe(i, sleep_s=0.2) for i in range(4)]
    chaos = ChaosSpec(seed=9, kill_prob=0.5, corrupt_prob=0.5,
                      duplicate_claim_prob=0.25)
    payloads, stats, _ = run_fleet(tmp_path, jobs, chaos)
    assert canonical_json(payloads) == chaos_free_baseline(jobs)
    fired = chaos_events(tmp_path)
    assert sum(fired.values()) >= 1  # seed 9 hits at least one fault
    # Collection drained the fleet directory despite the faults.
    assert list((tmp_path / QUEUE_DIR).glob("*.json")) == []
    assert list((tmp_path / RESULT_DIR).glob("*.json")) == []


def test_chaos_spec_travels_with_the_fleet_dir(tmp_path):
    chaos = ChaosSpec(seed=10, kill_prob=0.5)
    FleetBackend(tmp_path, ttl_s=1.0, chaos=chaos)
    assert ChaosSpec.load(tmp_path / "chaos.json") == chaos
    # Workers pick the spec up from the directory automatically.
    from repro.exec import FleetWorker
    worker = FleetWorker(tmp_path, worker_id="w")
    assert worker.chaos == chaos
