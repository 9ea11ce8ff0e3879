"""Tests for the BurstTracker bottleneck classifier (a test oracle)."""

import pytest

from repro.phy.dci import DciMessage, SubframeRecord

from .reference_bursttracker import (
    IDLE,
    UPSTREAM_BOTTLENECK,
    WIRELESS_BOTTLENECK,
    BurstTracker,
)

OWN = 100


def _feed(tracker, pattern, total=100):
    """pattern: iterable of own-PRB grants per subframe (0 = none)."""
    for subframe, prbs in enumerate(pattern):
        rec = SubframeRecord(subframe, 0, total)
        if prbs:
            rec.messages.append(DciMessage(subframe, 0, OWN, prbs, 12,
                                           2, tbs_bits=prbs * 1_000))
        tracker.update(rec)


def test_backlogged_user_is_wireless_bottleneck():
    tracker = BurstTracker(OWN, window_subframes=50)
    # Full-cell grants every subframe: the user takes everything.
    _feed(tracker, [100] * 100)
    assert tracker.classifications == [WIRELESS_BOTTLENECK] * 2
    assert tracker.verdict() == WIRELESS_BOTTLENECK


def test_backlogged_share_counts_even_with_competitor():
    tracker = BurstTracker(OWN, window_subframes=50)
    # Only 40 PRBs each subframe, but zero idle: still backlogged.
    for subframe in range(100):
        rec = SubframeRecord(subframe, 0, 100)
        rec.messages.append(DciMessage(subframe, 0, OWN, 40, 12, 2,
                                       tbs_bits=40_000))
        rec.messages.append(DciMessage(subframe, 0, 7, 60, 12, 2,
                                       tbs_bits=60_000))
        tracker.update(rec)
    assert tracker.verdict() == WIRELESS_BOTTLENECK


def test_starved_user_is_upstream_bottleneck():
    tracker = BurstTracker(OWN, window_subframes=50)
    # Scheduled every subframe but tiny grants with a mostly idle cell:
    # the queue keeps running dry.
    _feed(tracker, [3] * 100)
    assert tracker.verdict() == UPSTREAM_BOTTLENECK


def test_silence_is_idle():
    tracker = BurstTracker(OWN, window_subframes=50)
    _feed(tracker, [0] * 100)
    assert tracker.classifications == [IDLE] * 2
    assert tracker.verdict() == IDLE


def test_longest_gap_measured():
    tracker = BurstTracker(OWN, window_subframes=50)
    _feed(tracker, [100] * 20 + [0] * 15 + [100] * 15)
    assert tracker.windows[0].longest_gap == 15


def test_fraction_accounting():
    tracker = BurstTracker(OWN, window_subframes=50)
    _feed(tracker, [100] * 50 + [0] * 50)
    assert tracker.fraction(WIRELESS_BOTTLENECK) == 0.5
    assert tracker.fraction(IDLE) == 0.5


def test_validation():
    with pytest.raises(ValueError):
        BurstTracker(OWN, window_subframes=5)


def test_agrees_with_pbe_state_machine_end_to_end():
    """BurstTracker and the PBE client should localize the bottleneck
    identically, from independent signals."""
    from repro.harness import Experiment, FlowSpec, Scenario
    from repro.phy.carrier import CarrierConfig

    def run(internet_rate):
        scenario = Scenario(
            name="bt", carriers=[CarrierConfig(0, 10.0)],
            aggregated_cells=1, mean_sinr_db=15.0,
            internet_rate_bps=internet_rate,
            internet_queue_packets=300, duration_s=4.0, seed=21)
        exp = Experiment(scenario)
        exp.add_flow(FlowSpec(scheme="pbe"))
        tracker = BurstTracker(100)
        exp.network.attach_monitor(0, tracker.update)
        result = exp.run()[0]
        return tracker.verdict(), result.state_fractions

    verdict, fractions = run(internet_rate=1e9)
    assert verdict == WIRELESS_BOTTLENECK
    assert fractions["wireless"] > 0.9

    verdict, fractions = run(internet_rate=10e6)
    assert verdict == UPSTREAM_BOTTLENECK
    assert fractions["internet"] > 0.5
