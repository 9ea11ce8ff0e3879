"""Tests for the discrete-event simulator core."""

import pytest

from repro.net.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(50, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "early")
    sim.schedule(900, fired.append, "late")
    sim.run(until_us=500)
    assert fired == ["early"]
    assert sim.now == 500  # clock left exactly at the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(50, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(100, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_one_of_many():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "keep1")
    victim = sim.schedule(100, fired.append, "cancel")
    sim.schedule(100, fired.append, "keep2")
    victim.cancel()
    sim.run()
    assert fired == ["keep1", "keep2"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_stop_halts_the_loop():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(20, sim.stop)
    sim.schedule(30, fired.append, 2)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_pending_events_counts_queue():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert len(sim._heap) - sim._cancelled == 2
    sim.run()
    assert len(sim._heap) - sim._cancelled == 0


def test_callback_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule(5, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]


def test_stop_inside_run_until_keeps_the_clock_behind_queued_events():
    """``stop()`` leaves events at or before ``until_us`` queued; the
    clock must not jump past them, or the next ``run`` pops them with
    ``now`` running backwards."""
    sim = Simulator()
    seen = []
    sim.schedule(10, sim.stop)
    sim.schedule(20, lambda: seen.append(sim.now))
    sim.run(until_us=100)
    assert (sim.now, len(sim._heap) - sim._cancelled) == (10, 1)
    sim.run(until_us=200)
    assert seen == [20]
    assert sim.now == 200  # drained this time: fast-forward as usual


# ----------------------------------------------------------------------
# advance_to: moving the clock from inside a callback
# ----------------------------------------------------------------------
def _advance_from_callback(sim, at_us, to_us, then=lambda: None):
    """Schedule a callback at ``at_us`` that tries ``advance_to(to_us)``;
    returns the list its verdict and the clock afterwards land in."""
    out = []

    def callback():
        out.append(sim.advance_to(to_us))
        out.append(sim.now)
        then()

    sim.schedule_at(at_us, callback)
    return out


def test_advance_to_moves_the_clock_when_nothing_is_due():
    sim = Simulator()
    fired = []
    sim.schedule_at(500, fired.append, "later")
    out = _advance_from_callback(
        sim, 100, 499,
        then=lambda: sim.schedule(0, lambda: fired.append(sim.now)))
    sim.run(until_us=1_000)
    assert out == [True, 499]
    # schedule(0, ...) after the advance lands at the advanced instant,
    # ahead of the event that was strictly later.
    assert fired == [499, "later"]


def test_advance_to_refuses_a_tie_and_the_queued_event_fires_first():
    sim = Simulator()
    fired = []
    sim.schedule_at(300, fired.append, "queued first")
    out = _advance_from_callback(
        sim, 100, 300,
        then=lambda: sim.schedule_at(300, fired.append, "rescheduled"))
    sim.run()
    assert out == [False, 100]
    assert fired == ["queued first", "rescheduled"]


def test_advance_to_refuses_on_a_cancelled_entry_at_the_top():
    sim = Simulator()
    sim.schedule_at(200, lambda: None).cancel()
    out = _advance_from_callback(sim, 100, 250)
    sim.run()
    assert out == [False, 100]


def test_advance_to_refuses_beyond_the_run_limit():
    sim = Simulator()
    out = _advance_from_callback(sim, 100, 501)
    sim.run(until_us=500)
    assert out == [False, 100]
    inside = _advance_from_callback(sim, 600, 1_000)  # the limit itself
    sim.run(until_us=1_000)
    assert inside == [True, 1_000]


def test_advance_to_refuses_outside_run_and_after_stop():
    sim = Simulator()
    assert not sim.advance_to(10)
    assert sim.now == 0

    def stop_then_advance():
        sim.stop()
        out.append(sim.advance_to(200))

    out = []
    sim.schedule_at(100, stop_then_advance)
    sim.run(until_us=1_000)
    assert out == [False]
    assert sim.now == 100


def test_advance_to_refuses_to_run_the_clock_backwards():
    sim = Simulator()
    out = _advance_from_callback(sim, 100, 99)
    sim.run()
    assert out == [False, 100]
