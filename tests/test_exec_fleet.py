"""Fleet fabric: leases, reclamation, worker lifecycle.

In-process :class:`FleetWorker` threads cover the queue/lease protocol
(deterministic, fast); a handful of subprocess tests cover the worker
processes a backend spawns, SIGTERM handling and the driver's reaping
of a dead worker.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.exec import (
    FleetBackend,
    FleetWorker,
    Job,
    ParallelRunner,
    ProbeJob,
    RunnerStats,
    WorkerLostError,
    execute_job,
    is_failure,
    job_from_wire,
    job_to_wire,
    payload_checksum,
    seal,
    spawn_local_workers,
)
from repro.exec import fleet
from repro.exec.fleet import (
    LEASE_DIR,
    QUEUE_DIR,
    RESULT_DIR,
    STOP_FILE,
    release_lease,
    try_claim,
)
from repro.exec.store import ENVELOPE_KEY, SCHEMA_VERSION
from repro.faults import FaultSpec
from repro.harness import Scenario


def probe(i, **extra):
    return ProbeJob(params={"id": i, "value": i * 10, **extra})


def enqueue(root, job):
    """What FleetBackend.submit writes, without a backend."""
    wire = job_to_wire(job)
    path = root / QUEUE_DIR / f"{wire['fingerprint']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(wire))
    return wire["fingerprint"]


def worker_thread(root, max_jobs, **kw):
    worker = FleetWorker(root, worker_id=f"t-{max_jobs}",
                         poll_s=kw.pop("poll_s", 0.02),
                         max_jobs=max_jobs,
                         log=open(os.devnull, "w"), **kw)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


# ---------------------------------------------------------------------
# Lease protocol units.

def test_claim_is_exclusive(tmp_path):
    assert try_claim(tmp_path, "ab" * 16, "w1") is True
    assert try_claim(tmp_path, "ab" * 16, "w2") is False
    lease = json.loads(
        (tmp_path / LEASE_DIR / f"{'ab' * 16}.json").read_text())
    assert lease["worker"] == "w1"


def test_a_claim_racing_a_fresh_claims_write_loses(tmp_path, monkeypatch):
    """A second worker claims while the first is still writing its
    record: exactly one of them may win, and the lease holds a whole
    record."""
    fp = "ef" * 16
    real_fdopen = os.fdopen
    inner = []

    def fdopen_racing_a_peer(*args, **kwargs):
        if not inner:
            inner.append(None)  # the peer's own claim writes unraced
            inner[0] = try_claim(tmp_path, fp, "w2")
        return real_fdopen(*args, **kwargs)

    monkeypatch.setattr(fleet.os, "fdopen", fdopen_racing_a_peer)
    outer = try_claim(tmp_path, fp, "w1")
    monkeypatch.undo()
    assert inner, "the first claim wrote nothing through os.fdopen"
    assert sorted(map(bool, (outer, inner[0]))) == [False, True]
    lease = json.loads((tmp_path / LEASE_DIR / f"{fp}.json").read_text())
    assert lease["worker"] == ("w1" if outer else "w2")
    assert os.listdir(tmp_path / LEASE_DIR) == [f"{fp}.json"]


def test_release_lease_tolerates_absence(tmp_path):
    release_lease(tmp_path, "00" * 16)  # no lease: no error


# ---------------------------------------------------------------------
# Worker loop.

def test_worker_executes_queue_and_releases_lease(tmp_path):
    fp = enqueue(tmp_path, probe(1))
    worker = FleetWorker(tmp_path, worker_id="w", poll_s=0.02,
                         max_jobs=1,
                         log=open(os.devnull, "w"))
    assert worker.run() == 0
    assert worker.executed == 1
    entry = json.loads(
        (tmp_path / RESULT_DIR / f"{fp}.json").read_text())
    assert entry[ENVELOPE_KEY] == SCHEMA_VERSION
    assert entry["payload"] == {"probe": 1, "value": 10}
    assert entry["sha256"] == payload_checksum(entry["payload"])
    assert not (tmp_path / LEASE_DIR / f"{fp}.json").exists()


def test_worker_writes_failure_file_for_job_errors(tmp_path):
    fp = enqueue(tmp_path, probe(2, fail=True))
    worker = FleetWorker(tmp_path, worker_id="w", poll_s=0.02,
                         max_jobs=1, log=open(os.devnull, "w"))
    assert worker.run() == 0
    entry = json.loads(
        (tmp_path / RESULT_DIR / f"{fp}.json").read_text())
    assert entry["kind"] == "failure"
    assert entry["failure"]["exc_type"] == "RuntimeError"
    assert "asked to fail" in entry["failure"]["message"]


def test_worker_refuses_an_entry_filed_under_another_jobs_fingerprint(
        tmp_path):
    """Job a's wire entry saved as job b's queue file (and carrying b's
    fingerprint field, or its own) must not run: its payload would land
    in ``results/`` under b's key for the driver to store as b's."""
    a, b = ProbeJob(params={"id": "a", "value": 1}), probe(7)
    fp_b = b.fingerprint()
    queue = tmp_path / QUEUE_DIR
    queue.mkdir(parents=True)
    for name, field in ((fp_b, fp_b), ("0" * 64, a.fingerprint())):
        wire = dict(job_to_wire(a), fingerprint=field)
        (queue / f"{name}.json").write_text(json.dumps(wire))
    worker = FleetWorker(tmp_path, worker_id="w", poll_s=0.02,
                         max_jobs=2, log=open(os.devnull, "w"))
    assert worker.run() == 0
    for name in (fp_b, "0" * 64):
        text = (tmp_path / RESULT_DIR / f"{name}.json").read_text()
        entry = json.loads(text)
        assert entry["kind"] == "failure"
        assert entry["failure"]["exc_type"] == "ValueError"
        assert a.fingerprint() in entry["failure"]["message"]
        assert "refusing it" in entry["failure"]["message"]
        assert '"probe"' not in text


@pytest.mark.parametrize("data,field", [
    ({"kind": "flow"}, "spec"),
    ({"kind": "flow", "spec": None}, "spec"),
    ({"kind": "flow", "spec": {"scheme": "pbe"}}, "spec"),
    ({"kind": "probe", "spec": {}}, "spec"),
    ({"spec": {"params": {}}}, "kind"),
    ({"kind": "nope", "spec": {}}, "kind"),
    (["flow"], "kind"),
])
def test_job_from_wire_names_the_field_it_failed_on(data, field):
    with pytest.raises(ValueError, match=field):
        job_from_wire(data)


def test_every_shipped_job_kind_round_trips_to_its_own_fingerprint():
    """The worker's fingerprint check cannot fire on good input: every
    job a shipped driver submits, and a flow job with a ``faults``
    override, rebuilds from its JSON wire form to the fingerprint it was
    queued under."""
    from repro.harness.experiments.sweep import sweep_jobs

    jobs = [*sweep_jobs(("pbe", "bbr", "cubic"), n_busy=2, n_idle=1,
                        duration_s=1.0),
            Job(Scenario(name="faulted", duration_s=1.0, seed=400),
                "pbe", {"faults": FaultSpec(
                    seed=7, dci_miss_rate=0.2, outages=((250, 500),),
                    ack_loss_rate=0.01).to_dict()}),
            probe(1), probe(2, fail=True)]
    assert {type(job).__name__ for job in jobs} == {"Job", "ProbeJob"}
    for job in jobs:
        wire = json.loads(json.dumps(job_to_wire(job)))
        assert job_from_wire(wire).fingerprint() == wire["fingerprint"] \
            == job.fingerprint()


def test_worker_exits_on_stop_sentinel(tmp_path):
    enqueue(tmp_path, probe(3))
    (tmp_path / STOP_FILE).touch()
    worker = FleetWorker(tmp_path, worker_id="w", poll_s=0.02,
                         log=open(os.devnull, "w"))
    assert worker.run() == 0
    assert worker.executed == 0  # sentinel precedes claiming


def test_worker_skips_live_leases(tmp_path):
    fp = enqueue(tmp_path, probe(4))
    assert try_claim(tmp_path, fp, "other")
    worker = FleetWorker(tmp_path, worker_id="w", poll_s=0.02,
                         log=open(os.devnull, "w"))
    assert list(worker._claimable()) == []


def test_worker_leaves_a_job_finished_during_its_scan(tmp_path):
    """``_claimable`` checks the result file, *then* the lease: a
    peer that writes its result and releases its lease in between
    leaves a candidate with no lease and a result the scan never saw.
    The claim succeeds — and must be given back without running the
    job, or a corrupt envelope is overwritten before the driver can
    quarantine and count it."""
    fp = enqueue(tmp_path, probe(6))
    result = tmp_path / RESULT_DIR / f"{fp}.json"
    result.parent.mkdir(parents=True)
    result.write_bytes(b"a peer's envelope, corrupt in transit")
    worker = FleetWorker(tmp_path, worker_id="late", poll_s=0.02,
                         log=open(os.devnull, "w"))
    scans = []

    def stale_scan():
        if scans:
            worker.stop_requested = True
        else:
            scans.append(fp)
            yield fp, tmp_path / QUEUE_DIR / f"{fp}.json"

    worker._claimable = stale_scan
    worker._execute_claimed = lambda *args: pytest.fail("job ran twice")
    assert worker.run() == 0
    assert scans == [fp] and worker.executed == 0
    assert result.read_bytes() == b"a peer's envelope, corrupt in transit"
    assert not (tmp_path / LEASE_DIR / f"{fp}.json").exists()


# ---------------------------------------------------------------------
# Driver backend.

def test_fleet_backend_completes_probe_sweep(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.02)
    runner = ParallelRunner(jobs=2, backend=backend)
    _, thread = worker_thread(tmp_path, max_jobs=3)
    payloads = runner.run([probe(i) for i in range(3)])
    thread.join(timeout=10)
    assert payloads == [{"probe": i, "value": i * 10}
                        for i in range(3)]
    assert runner.stats.executed == 3
    # Collection cleans the shared directory behind itself.
    assert list((tmp_path / QUEUE_DIR).glob("*.json")) == []
    assert list((tmp_path / RESULT_DIR).glob("*.json")) == []


def wait_for(predicate, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {what}"
        time.sleep(0.02)


def test_expired_lease_is_reclaimed_and_job_retried(tmp_path):
    """SIGKILL the local worker holding a job's lease: the driver's next
    poll releases the lease and fails the job as lost, the runner
    retries it, and the retry runs under the respawned worker's own
    lease — there is no clock to wait out."""
    job = probe("held", sleep_s=1.0)
    lease = tmp_path / LEASE_DIR / f"{job.fingerprint()}.json"
    backend = FleetBackend(tmp_path, poll_s=0.02, local_workers=1)
    runner = ParallelRunner(jobs=2, backend=backend, retries=2)
    holders = []

    def holder():
        return (fleet._read_json(lease) or {}).get("worker")

    def kill_then_watch():
        wait_for(lease.exists, "job claimed")
        holders.append(holder())
        backend._workers[holders[0]].kill()
        wait_for(lambda: holder() not in (None, holders[0]),
                 "job re-claimed")
        holders.append(holder())

    killer = threading.Thread(target=kill_then_watch, daemon=True)
    killer.start()
    try:
        payloads = runner.run([job])
    finally:
        backend.shutdown(wait=True)
    killer.join(timeout=10)
    assert payloads == [execute_job(job)]
    assert len(holders) == 2 and holders[1].startswith("respawn1-")
    assert runner.stats.lease_reclaims == 1
    assert runner.stats.retries >= 1
    assert "leases reclaimed" in runner.stats.format()


def test_worker_exits_when_its_driver_is_gone(tmp_path, monkeypatch):
    """A worker whose parent pid changed (its driver died and it was
    reparented) leaves its loop without claiming the queued job."""
    fp = enqueue(tmp_path, probe(16))
    worker = FleetWorker(tmp_path, worker_id="orphan", poll_s=0.02,
                         log=open(os.devnull, "w"))
    parent = os.getppid()
    monkeypatch.setattr(fleet.os, "getppid", lambda: parent + 1)
    assert worker.run() == 0
    assert worker.executed == 0
    assert os.listdir(tmp_path / QUEUE_DIR) == [f"{fp}.json"]
    assert not (tmp_path / LEASE_DIR).exists()


def test_leftover_lease_does_not_block_a_new_backends_job(tmp_path):
    """A lease left in a reused directory names a worker of a process
    tree that is gone: a new backend clears it, and the job runs."""
    job = probe(17)
    assert try_claim(tmp_path, job.fingerprint(), "gone")
    backend = FleetBackend(tmp_path, poll_s=0.02)
    assert os.listdir(tmp_path / LEASE_DIR) == []
    runner = ParallelRunner(jobs=2, backend=backend, retries=0)
    _, thread = worker_thread(tmp_path, max_jobs=1)
    assert runner.run([job]) == [execute_job(job)]
    thread.join(timeout=10)
    assert runner.stats.executed == 1 and runner.stats.lease_reclaims == 0


def test_remote_job_error_is_a_structured_failure(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.02)
    runner = ParallelRunner(jobs=2, backend=backend, retries=1)
    _, thread = worker_thread(tmp_path, max_jobs=2)
    payloads = runner.run([probe(6), probe(7, fail=True)])
    thread.join(timeout=10)
    assert payloads[0] == {"probe": 6, "value": 60}
    assert is_failure(payloads[1])
    assert payloads[1].kind == "job-error"
    assert "RuntimeError" in payloads[1].message


def test_corrupt_result_is_quarantined_and_retried(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.02)
    job = probe(8)
    handle = backend.submit(job)
    # A torn write lands in results/: half an envelope.
    good = {ENVELOPE_KEY: SCHEMA_VERSION, "sha256": "x",
            "payload": {}}
    (tmp_path / RESULT_DIR / f"{handle.fingerprint}.json").write_text(
        json.dumps(good)[:20])
    done = backend.wait({handle}, timeout=5)
    assert handle in done
    with pytest.raises(WorkerLostError, match="corrupt in transit"):
        backend.result(handle)
    assert backend.corrupt_results == 1
    assert (tmp_path / "quarantine"
            / f"{handle.fingerprint}.json").exists()
    # The queue entry survives, so the retry re-executes normally.
    assert (tmp_path / QUEUE_DIR
            / f"{handle.fingerprint}.json").exists()


def test_submit_quarantines_a_corrupt_preexisting_result(tmp_path):
    """A corrupt result found at (re)submission — a reclaimed worker's
    envelope landing late — is set aside and counted, not unlinked."""
    backend = FleetBackend(tmp_path, poll_s=0.02)
    job = probe(9)
    fingerprint = backend.submit(job).fingerprint
    result = tmp_path / RESULT_DIR / f"{fingerprint}.json"
    result.write_text('{"torn":')
    backend.submit(job)
    assert not result.exists()
    assert (tmp_path / "quarantine" / f"{fingerprint}.json").read_text() \
        == '{"torn":'
    assert backend.corrupt_results == 1
    assert (tmp_path / QUEUE_DIR / f"{fingerprint}.json").exists()


def test_checksum_mismatch_is_rejected(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.02)
    handle = backend.submit(probe(9))
    bad = {ENVELOPE_KEY: SCHEMA_VERSION, "sha256": "0" * 64,
           "payload": {"probe": 9, "value": 1234}}
    (tmp_path / RESULT_DIR / f"{handle.fingerprint}.json").write_text(
        json.dumps(bad))
    with pytest.raises(WorkerLostError):
        backend.result(handle)


def test_dead_fleet_restart_collects_existing_results(tmp_path):
    # A SIGKILLed fleet leaves a completed-but-uncollected result and
    # its worker's lease behind; a fresh driver must harvest the result
    # without re-executing and clear the stale lease.
    job = probe(10)
    fp = job.fingerprint()
    payload = {"probe": 10, "value": 100}
    (tmp_path / RESULT_DIR).mkdir(parents=True)
    (tmp_path / RESULT_DIR / f"{fp}.json").write_bytes(seal(payload))
    assert try_claim(tmp_path, fp, "gone")
    (tmp_path / STOP_FILE).touch()  # dead driver's sentinel

    backend = FleetBackend(tmp_path, poll_s=0.02)
    assert not (tmp_path / STOP_FILE).exists()  # cleared for workers
    assert not (tmp_path / LEASE_DIR / f"{fp}.json").exists()
    handle = backend.submit(job)
    assert handle in backend.wait({handle}, timeout=5)
    assert backend.result(handle) == payload


def test_shutdown_sweeps_a_duplicate_result_landing_after_collection(
        tmp_path):
    """A duplicate claimer can finish after the driver collected and
    cleaned its job; once the local workers are gone, shutdown removes
    what it left, so the fleet directory ends empty."""
    backend = FleetBackend(tmp_path, poll_s=0.02)
    job = probe(15)
    handle = backend.submit(job)
    payload = job.execute()
    result = tmp_path / RESULT_DIR / f"{handle.fingerprint}.json"
    result.write_bytes(seal(payload))
    assert backend.result(handle) == payload
    assert not result.exists()
    result.write_bytes(seal(payload))  # the duplicate, landing late
    backend.shutdown(wait=True)
    assert list((tmp_path / RESULT_DIR).iterdir()) == []
    assert list((tmp_path / QUEUE_DIR).iterdir()) == []


def test_shutdown_sweeps_a_killed_claimers_temp_lease(tmp_path):
    """A worker killed between writing its lease record and linking it
    leaves the temp file; shutdown removes it, and no lease with it."""
    backend = FleetBackend(tmp_path, poll_s=0.02)
    assert try_claim(tmp_path, "cd" * 16, "w1")
    (tmp_path / LEASE_DIR / "tmpdead.tmp").write_bytes(b"{}")
    backend.shutdown(wait=True)
    assert os.listdir(tmp_path / LEASE_DIR) == [f"{'cd' * 16}.json"]


def test_submit_discards_invalid_leftover_results(tmp_path):
    job = probe(11)
    fp = job.fingerprint()
    (tmp_path / RESULT_DIR).mkdir(parents=True)
    (tmp_path / RESULT_DIR / f"{fp}.json").write_text("{garbage")
    backend = FleetBackend(tmp_path, poll_s=0.02)
    backend.submit(job)
    assert not (tmp_path / RESULT_DIR / f"{fp}.json").exists()


def test_exec_elapsed_is_claim_relative(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.02)
    handle = backend.submit(probe(12))
    # Unclaimed: queue wait must not run the deadline clock.
    assert backend.exec_elapsed(handle, 100.0) == 0.0
    assert try_claim(tmp_path, handle.fingerprint, "w")
    elapsed = backend.exec_elapsed(handle, 100.0)
    assert 0.0 <= elapsed < 5.0


def test_cancel_only_unclaimed_jobs(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.02)
    unclaimed = backend.submit(probe(13))
    claimed = backend.submit(probe(14))
    assert try_claim(tmp_path, claimed.fingerprint, "w")
    assert backend.cancel(unclaimed)
    assert not (tmp_path / QUEUE_DIR
                / f"{unclaimed.fingerprint}.json").exists()
    assert not backend.cancel(claimed)


def test_runner_stats_format_mentions_fleet_counters_only_when_used():
    quiet = RunnerStats(total=1)
    assert "reclaimed" not in quiet.format()
    loud = RunnerStats(total=1, lease_reclaims=2, worker_restarts=1)
    assert "2 leases reclaimed" in loud.format()
    assert "1 workers respawned" in loud.format()


# ---------------------------------------------------------------------
# Real subprocess workers (what a backend's local_workers spawns).

def test_spawned_local_workers_complete_a_sweep(tmp_path):
    backend = FleetBackend(tmp_path, poll_s=0.05, local_workers=2)
    runner = ParallelRunner(jobs=2, backend=backend)
    payloads = runner.run([probe(i) for i in range(4)])
    assert payloads == [{"probe": i, "value": i * 10}
                        for i in range(4)]
    # The runner's teardown stopped the workers via the sentinel.
    assert (tmp_path / STOP_FILE).exists()
    for proc in backend._workers.values():
        assert proc.wait(timeout=20) == 0


def test_worker_killed_holding_a_lease_is_respawned_and_reclaimed(
        tmp_path):
    """SIGKILL the local worker that holds a running job's lease: the
    driver notices it exited, the job is reclaimed and re-run, the
    driver respawns the dead worker, and the payload is the job's own."""
    job = probe("killed", sleep_s=1.0)
    lease = tmp_path / LEASE_DIR / f"{job.fingerprint()}.json"
    backend = FleetBackend(tmp_path, poll_s=0.05, local_workers=2)
    runner = ParallelRunner(jobs=2, backend=backend, retries=2)
    killed = []

    def kill_lease_holder():
        wait_for(lease.exists, "job claimed")
        holder = json.loads(lease.read_text())["worker"]
        pid = backend._workers[holder].pid
        os.kill(pid, signal.SIGKILL)
        killed.append(pid)

    killer = threading.Thread(target=kill_lease_holder, daemon=True)
    killer.start()
    try:
        payloads = runner.run([job])
    finally:
        backend.shutdown(wait=True)
    killer.join(timeout=10)
    assert len(killed) == 1
    assert payloads == [execute_job(job)]
    assert runner.stats.worker_restarts >= 1
    assert runner.stats.lease_reclaims >= 1


def test_sigterm_finishes_job_and_releases_lease(tmp_path):
    fp = enqueue(tmp_path, probe("slow", sleep_s=2.0))
    proc, = spawn_local_workers(tmp_path, 1, poll_s=0.05).values()
    try:
        deadline = time.monotonic() + 30
        lease = tmp_path / LEASE_DIR / f"{fp}.json"
        while not lease.exists():
            assert time.monotonic() < deadline, "job never claimed"
            assert proc.poll() is None, "worker died early"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        # First SIGTERM: the in-flight job completes, then exit 0.
        assert proc.wait(timeout=30) == 0
        entry = json.loads(
            (tmp_path / RESULT_DIR / f"{fp}.json").read_text())
        assert entry["payload"]["probe"] == "slow"
        assert not lease.exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
