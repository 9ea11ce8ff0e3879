"""ParallelRunner: parallel/serial equivalence, memoization, telemetry.

Simulations here are deliberately tiny (one 10 MHz carrier, ~1 s
flows) — the subject under test is the execution subsystem, not the
simulator.
"""

import concurrent.futures
import inspect
import json
import time
from pathlib import Path

import pytest

import repro.exec
from repro.cli import main
from repro.exec import (
    Job,
    JobEvent,
    JobExecutionError,
    ParallelRunner,
    ProbeJob,
    ResultStore,
    canonical_json,
    execute_job,
    is_failure,
    make_runner,
)
from repro.harness import Scenario
from repro.harness.experiments import run_stationary_sweep
from repro.phy.carrier import CarrierConfig

SWEEP_KW = dict(schemes=("pbe", "bbr"), n_busy=1, n_idle=1,
                duration_s=1.0)


def tiny_scenario(seed=7, **overrides):
    base = dict(name=f"runner-{seed}", carriers=[CarrierConfig(0, 10.0)],
                aggregated_cells=1, mean_sinr_db=14.0,
                duration_s=1.0, seed=seed)
    base.update(overrides)
    return Scenario(**base)


def pool_works() -> bool:
    """True when this platform can actually spawn pool workers."""
    try:
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


# ---------------------------------------------------------------------
# Cross-process determinism: the cache key (job inputs) must pin down
# the payload bytes no matter where the job ran.
def test_worker_process_payload_is_byte_identical_to_inline():
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    jobs = [Job(tiny_scenario(seed=7), "pbe"),
            Job(tiny_scenario(seed=8), "bbr")]
    inline = [execute_job(job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(2) as pool:
        remote = list(pool.map(execute_job, jobs))
    for a, b in zip(inline, remote):
        assert canonical_json(a) == canonical_json(b)


def test_parallel_sweep_equals_serial_sweep():
    serial = run_stationary_sweep(runner=make_runner(jobs=1),
                                  **SWEEP_KW)
    parallel = run_stationary_sweep(runner=make_runner(jobs=4),
                                    **SWEEP_KW)
    assert serial == parallel
    assert [e.scheme for e in serial.entries] == \
        [e.scheme for e in parallel.entries]


# ---------------------------------------------------------------------
# Memoization through the ResultStore.
def test_warm_cache_executes_zero_jobs(tmp_path):
    store = ResultStore(tmp_path)
    cold = ParallelRunner(store=store)
    first = run_stationary_sweep(runner=cold, **SWEEP_KW)
    assert cold.stats.executed == 4
    assert cold.stats.cache_hits == 0

    warm = ParallelRunner(store=store)
    second = run_stationary_sweep(runner=warm, **SWEEP_KW)
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == warm.stats.total == 4
    assert warm.stats.cache_hit_rate == 1.0
    assert first == second


def test_warm_cache_is_shared_by_parallel_runs(tmp_path):
    first = run_stationary_sweep(
        runner=make_runner(jobs=4, cache_dir=tmp_path), **SWEEP_KW)
    warm = ParallelRunner(jobs=4, store=ResultStore(tmp_path))
    second = run_stationary_sweep(runner=warm, **SWEEP_KW)
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == 4
    assert first == second


def test_fingerprint_change_forces_reexecution(tmp_path):
    store = ResultStore(tmp_path)
    run_stationary_sweep(runner=ParallelRunner(store=store), **SWEEP_KW)

    for changed in (dict(SWEEP_KW, base_seed=101),
                    dict(SWEEP_KW, duration_s=1.2),
                    dict(SWEEP_KW, schemes=("pbe", "cubic"))):
        runner = ParallelRunner(store=store)
        run_stationary_sweep(runner=runner, **changed)
        assert runner.stats.executed > 0, changed


def test_spec_override_changes_fingerprint_and_result(tmp_path):
    runner = ParallelRunner(store=ResultStore(tmp_path))
    base = Job(tiny_scenario(), "cbr")
    slow = Job(tiny_scenario(), "cbr",
               {"cc_kwargs": {"rate_bps": 1e6}})
    [p_base, p_slow] = runner.run([base, slow])
    assert runner.stats.executed == 2  # distinct fingerprints
    assert p_base["summary"]["average_throughput_bps"] > \
        p_slow["summary"]["average_throughput_bps"]


def test_corrupt_cache_entry_reexecuted(tmp_path):
    store = ResultStore(tmp_path)
    job = Job(tiny_scenario(), "bbr")
    first = ParallelRunner(store=store)
    [payload] = first.run([job])
    store.path_for(job.fingerprint()).write_text('{"broken')

    again = ParallelRunner(store=store)
    [recomputed] = again.run([job])
    assert again.stats.executed == 1
    assert again.stats.cache_hits == 0
    assert again.stats.quarantined == 1  # debris kept, not deleted
    assert recomputed == payload  # determinism heals the cache


# ---------------------------------------------------------------------
# Runner mechanics.
def test_duplicate_jobs_execute_once():
    runner = ParallelRunner()
    job = Job(tiny_scenario(), "bbr")
    results = runner.run([job, Job(tiny_scenario(), "bbr")])
    assert runner.stats.executed == 1
    assert runner.stats.deduplicated == 1
    assert results[0] is results[1]


def test_progress_events_and_stats(tmp_path):
    events = []
    runner = ParallelRunner(store=ResultStore(tmp_path),
                            progress=events.append)
    jobs = [Job(tiny_scenario(seed=7), "bbr"),
            Job(tiny_scenario(seed=8), "bbr")]
    runner.run(jobs)
    assert [e.kind for e in events] == ["executed", "executed"]
    assert events[-1].done == events[-1].total == 2
    assert all(isinstance(e, JobEvent) for e in events)
    assert len(runner.stats.job_wall_s) == 2
    assert runner.stats.wall_s > 0
    assert "2 jobs" in runner.stats.format()

    events.clear()
    cached = ParallelRunner(store=ResultStore(tmp_path),
                            progress=events.append)
    cached.run(jobs)
    assert [e.kind for e in events] == ["cached", "cached"]


def test_pool_unavailable_falls_back_inline(monkeypatch):
    events = []
    runner = ParallelRunner(jobs=4, progress=events.append)
    monkeypatch.setattr(runner, "_make_executor", lambda n: None)
    [payload] = runner.run([Job(tiny_scenario(), "bbr")])
    assert payload["summary"]["packets"] > 0
    assert runner.stats.executed == 1


def test_pool_unavailable_fallback_says_deadlines_are_off(monkeypatch):
    for timeout_s, expected in ((None, False), (60.0, True)):
        events = []
        runner = ParallelRunner(jobs=4, timeout_s=timeout_s,
                                progress=events.append)
        monkeypatch.setattr(runner, "_make_executor", lambda n: None)
        payloads = runner.run([ProbeJob({"id": i}) for i in range(2)])
        assert [p["probe"] for p in payloads] == [0, 1]
        [detail] = [e.detail for e in events if e.kind == "fallback"]
        assert ("deadlines are not enforced" in detail) is expected


def test_job_error_isolated_inline_by_default():
    runner = ParallelRunner()
    [failure] = runner.run([Job(tiny_scenario(), "warp-drive")])
    assert is_failure(failure)
    assert failure.kind == "job-error"
    assert failure.exc_type == "ValueError"
    assert "unknown scheme" in failure.message
    assert "Traceback" in failure.traceback
    assert runner.stats.failed == 1


def test_job_error_propagates_inline_when_strict():
    with pytest.raises(ValueError, match="unknown scheme"):
        ParallelRunner(strict=True).run(
            [Job(tiny_scenario(), "warp-drive")])


def test_timeout_guard_raises_after_retries_when_strict():
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    runner = ParallelRunner(jobs=2, timeout_s=0.001, retries=0,
                            strict=True)
    with pytest.raises(JobExecutionError) as err:
        runner.run([Job(tiny_scenario(seed=7), "bbr"),
                    Job(tiny_scenario(seed=8), "bbr")])
    assert "/bbr" in str(err.value)
    with pytest.raises(JobExecutionError):  # the one-job case too
        runner.run([Job(tiny_scenario(seed=7), "bbr")])


@pytest.mark.parametrize("jobs, n_pending", [(1, 2), (4, 1)])
def test_deadline_is_enforced_where_the_inline_shortcut_applied(
        jobs, n_pending):
    # Regression: ``jobs == 1`` (the CLI default) or a single pending
    # job (the typical re-run: the one job that hung) took the inline
    # path, which has no deadline — timeout_s was silently ignored.
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    runner = ParallelRunner(jobs=jobs, timeout_s=0.2, retries=0)
    t0 = time.monotonic()
    results = runner.run([ProbeJob({"id": i, "sleep_s": 1.0})
                          for i in range(n_pending)])
    assert all(is_failure(r) and r.kind == "timeout" for r in results)
    assert runner.stats.failed == n_pending
    # each 1 s sleeper is cut off at 0.2 s, one worker at a time
    assert time.monotonic() - t0 < n_pending * 1.0


# ---------------------------------------------------------------------
# The store is the only record of a finished job.
def test_rerun_reexecutes_only_failures(tmp_path):
    """The resume contract: done jobs are cache hits, failed re-run."""
    jobs = [Job(tiny_scenario(seed=1), "bbr"),
            Job(tiny_scenario(seed=2), "warp-drive")]
    make_runner(jobs=1, cache_dir=tmp_path).run(jobs)
    assert len(ResultStore(tmp_path)) == 1  # failures are never stored

    again = make_runner(jobs=1, cache_dir=tmp_path)
    results = again.run(jobs)
    assert again.stats.cache_hits == 1  # done job not recomputed
    assert again.stats.executed == 0
    assert again.stats.failed == 1      # failure re-attempted, not skipped
    assert is_failure(results[1])


def test_strict_abort_finalizes_stats(tmp_path):
    # Regression: a strict-mode job exception used to skip _finish —
    # stats.wall_s stayed 0 for a run that actually aborted.
    runner = make_runner(jobs=1, cache_dir=tmp_path, strict=True)
    jobs = [Job(tiny_scenario(seed=1), "bbr"),
            Job(tiny_scenario(seed=2), "warp-drive"),
            Job(tiny_scenario(seed=3), "bbr")]
    with pytest.raises(ValueError):
        runner.run(jobs)
    assert runner.stats.wall_s > 0
    assert runner.stats.executed == 1
    assert jobs[0].fingerprint() in runner.store  # stored pre-abort
    assert len(runner.store) == 1


def test_one_record_of_done(tmp_path, capsys):
    for func in (ParallelRunner, make_runner):
        names = set(inspect.signature(func).parameters)
        assert not names & {"journal", "runner"}, func
    assert not [n for n in dir(repro.exec) if "journal" in n.lower()]
    assert not hasattr(repro.exec.SweepInterrupted(1, 2), "journal_path")
    # a cache directory holds store shards and nothing else
    make_runner(cache_dir=tmp_path).run([ProbeJob({"id": 1})])
    assert [p for p in tmp_path.iterdir() if not p.is_dir()] == []
    for argv in (["sweep", "--resume"],
                 ["fleet", "sweep", "--dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
    capsys.readouterr()
    # the fleet speaks the store's envelope codec, not a copy of it
    fleet_source = Path(repro.exec.fleet.__file__).read_text()
    for name in ("ENVELOPE_KEY", "SCHEMA_VERSION", "payload_checksum"):
        assert name not in fleet_source


def test_timeout_isolated_as_failure_by_default():
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    runner = ParallelRunner(jobs=2, timeout_s=0.001, retries=0)
    failures = runner.run([Job(tiny_scenario(seed=7), "bbr"),
                           Job(tiny_scenario(seed=8), "bbr")])
    assert all(is_failure(f) and f.kind == "timeout"
               for f in failures)
    assert runner.stats.failed == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)
    with pytest.raises(ValueError):
        ParallelRunner(retries=-1)
    with pytest.raises(ValueError):
        ParallelRunner(timeout_s=0)
    # NaN fails ``<= 0`` too, and used to time every job out
    with pytest.raises(ValueError, match="timeout_s"):
        ParallelRunner(timeout_s=float("nan"))
    with pytest.raises(ValueError):
        ParallelRunner(failure_budget=1.5)


def test_payloads_are_json_normalized():
    [payload] = ParallelRunner().run([Job(tiny_scenario(), "pbe")])
    assert payload == json.loads(json.dumps(payload))
    assert all(isinstance(k, str)
               for k in payload["summary"]["delay_percentiles_ms"])
