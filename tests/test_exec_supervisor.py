"""Supervision layer: failure isolation, deadlines, backoff, budget.

Simulations here are deliberately tiny — the subject under test is the
execution supervision, not the simulator.
"""

import concurrent.futures
import signal
import time

import pytest

from repro.exec import (
    BackoffPolicy,
    FailureBudgetExceeded,
    Job,
    JobFailure,
    ParallelRunner,
    ResultStore,
    SignalDrain,
    is_failure,
)
from repro.harness import Scenario
from repro.phy.carrier import CarrierConfig


def tiny_scenario(seed=7, **overrides):
    base = dict(name=f"sup-{seed}", carriers=[CarrierConfig(0, 10.0)],
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


# ---------------------------------------------------------------------
# JobFailure: the structured record a failed job leaves behind.
def test_job_failure_roundtrip():
    try:
        raise ValueError("boom")
    except ValueError as exc:
        failure = JobFailure.from_exception(
            "loc/pbe", "ab" * 32, "job-error", exc, attempts=2,
            wall_s=1.5)
    assert failure.exc_type == "ValueError"
    assert failure.message == "boom"
    assert "Traceback" in failure.traceback
    rebuilt = JobFailure.from_dict(failure.to_dict())
    assert rebuilt == failure
    assert "job-error" in failure.summary()
    assert "2 attempt(s)" in failure.summary()


def test_job_failure_rejects_unknown_kind():
    with pytest.raises(ValueError):
        JobFailure.from_exception("x", "ab" * 32, "cosmic-ray",
                                  RuntimeError("no"))


# ---------------------------------------------------------------------
# Regression (satellite): one poisoned job out of 8 must not abort the
# sweep — 7 payloads come back plus 1 structured JobFailure.
def test_one_poisoned_job_of_eight_keeps_the_other_seven(tmp_path):
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    store = ResultStore(tmp_path)
    runner = ParallelRunner(jobs=4, store=store)
    jobs = [Job(tiny_scenario(seed=s), "bbr") for s in range(1, 8)]
    jobs.insert(3, Job(tiny_scenario(seed=99), "warp-drive"))
    results = runner.run(jobs)

    failures = [r for r in results if is_failure(r)]
    payloads = [r for r in results if not is_failure(r)]
    assert len(payloads) == 7 and len(failures) == 1
    assert is_failure(results[3])  # failure sits in its own slot
    assert failures[0].kind == "job-error"
    assert failures[0].exc_type == "ValueError"
    assert runner.stats.executed == 7
    assert runner.stats.failed == 1
    # every completed payload persisted despite the poison
    assert len(store) == 7


def test_failed_jobs_are_never_cached(tmp_path):
    store = ResultStore(tmp_path)
    runner = ParallelRunner(store=store)
    [failure] = runner.run([Job(tiny_scenario(), "warp-drive")])
    assert is_failure(failure)
    assert len(store) == 0
    # a re-run re-attempts the failure rather than recalling it
    again = ParallelRunner(store=store)
    [failure2] = again.run([Job(tiny_scenario(), "warp-drive")])
    assert is_failure(failure2)
    assert again.stats.cache_hits == 0


# ---------------------------------------------------------------------
# Concurrent deadlines: k slow jobs must all be detected within one
# timeout, not k stacked timeouts.
def test_concurrent_deadline_detection_is_o_timeout():
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    k, timeout_s = 4, 0.3
    runner = ParallelRunner(jobs=k, timeout_s=timeout_s, retries=0)
    jobs = [Job(tiny_scenario(seed=s, duration_s=30.0), "bbr")
            for s in range(1, k + 1)]
    t0 = time.monotonic()
    results = runner.run(jobs)
    wall = time.monotonic() - t0
    assert all(is_failure(r) and r.kind == "timeout" for r in results)
    # generous pool-startup allowance, but nowhere near k stacked
    # timeouts of the old serial collection loop
    assert wall < k * timeout_s + 2.0


def test_queue_wait_does_not_count_against_the_deadline():
    # Regression: with pending > workers all jobs were submitted at
    # once and the deadline clock started at submission, so jobs that
    # merely *queued* behind a full pool were popped as spurious
    # timeouts.  Queue wait must not consume attempts or fail jobs.
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    from repro.exec.worker import execute_job
    probe = Job(tiny_scenario(seed=50, duration_s=4.0), "bbr")
    t0 = time.monotonic()
    execute_job(probe)
    per_job = time.monotonic() - t0
    # one worker, six jobs: the last queues ~5 job-lengths, far past a
    # deadline that still gives an *executing* job 2.5x headroom
    timeout_s = max(0.5, 2.5 * per_job)
    runner = ParallelRunner(jobs=1, timeout_s=timeout_s, retries=0)
    jobs = [Job(tiny_scenario(seed=s, duration_s=4.0), "bbr")
            for s in range(51, 57)]
    results = runner.run(jobs)
    assert not any(is_failure(r) for r in results)
    assert runner.stats.executed == 6
    assert runner.stats.failed == 0
    assert runner.stats.retries == 0


def test_strict_timeout_does_not_join_a_hung_worker():
    # Regression: when _collect raised (strict JobExecutionError) its
    # hung-worker flag was lost and shutdown(wait=True) joined the
    # still-running worker — wedging the sweep for the full job length.
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    from repro.exec.runner import JobExecutionError
    runner = ParallelRunner(jobs=2, timeout_s=0.3, retries=0,
                            strict=True)
    jobs = [Job(tiny_scenario(seed=s, duration_s=30.0), "bbr")
            for s in (60, 61)]
    t0 = time.monotonic()
    with pytest.raises(JobExecutionError):
        runner.run(jobs)
    # nowhere near the ~4s (duration 30) the hung join would cost
    assert time.monotonic() - t0 < 3.0
    assert runner.stats.wall_s > 0  # finalized despite the abort


# ---------------------------------------------------------------------
# Backoff: exponential, capped, deterministically jittered.
def test_backoff_is_deterministic_and_exponential():
    policy = BackoffPolicy(base_s=1.0, factor=2.0, max_s=8.0)
    fp = "ab" * 32
    first = [policy.delay_s(fp, n) for n in (1, 2, 3, 4, 5)]
    second = [policy.delay_s(fp, n) for n in (1, 2, 3, 4, 5)]
    assert first == second  # same job, same schedule, every time
    # jitter scales within [0.5, 1.0) of the raw exponential value
    for attempt, delay in zip((1, 2, 3, 4), first):
        raw = min(8.0, 1.0 * 2.0 ** (attempt - 1))
        assert 0.5 * raw <= delay < raw
    assert first[4] <= 8.0  # capped
    # distinct jobs de-correlate
    assert policy.delay_s("cd" * 32, 1) != policy.delay_s(fp, 1)
    with pytest.raises(ValueError):
        policy.delay_s(fp, 0)


def test_retry_backoff_is_accounted(monkeypatch):
    if not pool_works():
        pytest.skip("no working process pool on this platform")
    runner = ParallelRunner(jobs=2, timeout_s=0.05, retries=1,
                            backoff=BackoffPolicy(base_s=0.05,
                                                  max_s=0.1))
    results = runner.run(
        [Job(tiny_scenario(seed=s, duration_s=30.0), "bbr")
         for s in (1, 2)])
    assert all(is_failure(r) for r in results)
    assert runner.stats.retries == 2
    assert runner.stats.backoff_s > 0


# ---------------------------------------------------------------------
# Failure budget: the circuit breaker aborts a degenerating sweep.
def test_failure_budget_trips():
    runner = ParallelRunner(failure_budget=0.25)
    jobs = [Job(tiny_scenario(seed=1), "bbr"),
            Job(tiny_scenario(seed=2), "nope-a"),
            Job(tiny_scenario(seed=3), "nope-b"),
            Job(tiny_scenario(seed=4), "bbr")]
    with pytest.raises(FailureBudgetExceeded) as err:
        runner.run(jobs)
    assert err.value.failed == 2
    assert err.value.total == 4
    assert runner.stats.failed == 2


def test_failure_budget_of_one_never_trips():
    runner = ParallelRunner(failure_budget=1.0)
    results = runner.run([Job(tiny_scenario(seed=s), "nope")
                          for s in (1, 2)])
    assert all(is_failure(r) for r in results)


# ---------------------------------------------------------------------
# Stats surface the degraded-run counters.
def test_stats_format_reports_failures_and_quarantine():
    runner = ParallelRunner()
    runner.run([Job(tiny_scenario(seed=1), "bbr"),
                Job(tiny_scenario(seed=2), "nope")])
    line = runner.stats.format()
    assert "1 failed" in line
    assert "quarantined" in line
    assert "backoff" in line


def test_failed_event_emitted():
    events = []
    runner = ParallelRunner(progress=events.append)
    runner.run([Job(tiny_scenario(), "nope")])
    assert [e.kind for e in events] == ["failed"]
    assert "job-error" in events[0].detail


# ---------------------------------------------------------------------
# SignalDrain: first signal requests a stop, second hard-aborts.
def test_signal_drain_two_stage():
    with SignalDrain() as drain:
        assert not drain.stop_requested
        drain._handle(signal.SIGINT, None)
        assert drain.stop_requested
        with pytest.raises(KeyboardInterrupt):
            drain._handle(signal.SIGINT, None)
    # handlers restored on exit
    assert signal.getsignal(signal.SIGINT) is not drain._handle


def test_signal_drain_restores_handlers():
    before = signal.getsignal(signal.SIGINT)
    with SignalDrain():
        assert signal.getsignal(signal.SIGINT) != before
    assert signal.getsignal(signal.SIGINT) == before


def test_disabled_drain_leaves_handlers_alone():
    before = signal.getsignal(signal.SIGINT)
    with SignalDrain(enabled=False):
        assert signal.getsignal(signal.SIGINT) == before


def test_drain_leaves_an_ignored_signal_ignored():
    # A pool worker ignores SIGINT/SIGTERM (initialize_worker); a sweep
    # run inside one must not turn a Ctrl-C into a job error.
    for sig in SignalDrain.SIGNALS:
        previous = signal.signal(sig, signal.SIG_IGN)
        try:
            with SignalDrain():
                assert signal.getsignal(sig) == signal.SIG_IGN
            assert signal.getsignal(sig) == signal.SIG_IGN
        finally:
            signal.signal(sig, previous)


def test_inline_run_stops_at_drain_request(tmp_path):
    store = ResultStore(tmp_path)
    runner = ParallelRunner(store=store)
    jobs = [Job(tiny_scenario(seed=s), "bbr") for s in (1, 2, 3)]

    calls = []
    original = runner._complete

    def complete_then_interrupt(*args, **kwargs):
        original(*args, **kwargs)
        calls.append(1)
        # simulate Ctrl-C landing after the first job persisted
        signal.raise_signal(signal.SIGINT)

    runner._complete = complete_then_interrupt
    from repro.exec import SweepInterrupted
    with pytest.raises(SweepInterrupted) as err:
        runner.run(jobs)
    assert len(calls) == 1  # no further job started
    assert err.value.done == 1
    assert err.value.total == 3
    assert len(store) == 1  # the finished payload persisted
