"""Tests for the §7 misreported-feedback guard."""

import pytest

from repro.core.guard import FeedbackGuard


def _feed(guard, seconds, reported_bps, achieved_bps, start_s=0.0):
    """One ACK per 10 ms carrying a report and a delivery sample."""
    t = int(start_s * 1e6)
    for _ in range(int(seconds * 100)):
        guard.observe(t, reported_bps, achieved_bps)
        t += 10_000
    return t / 1e6


def test_honest_client_never_flagged():
    guard = FeedbackGuard()
    _feed(guard, 20.0, reported_bps=50e6, achieved_bps=48e6)
    assert not guard.flagged
    assert guard.cap_rate(50e6) == 50e6


def test_reports_above_achieved_within_tolerance_ok():
    # Reporting somewhat above achieved is normal (idle capacity).
    guard = FeedbackGuard()
    _feed(guard, 20.0, reported_bps=60e6, achieved_bps=45e6)
    assert not guard.flagged


def test_consistent_overreporting_flagged_and_capped():
    guard = FeedbackGuard()
    _feed(guard, 20.0, reported_bps=500e6, achieved_bps=40e6)
    assert guard.flagged
    # The granted rate is capped near the measured throughput.
    assert guard.cap_rate(500e6) <= 1.2 * 40e6 * 1.01


def test_brief_spike_not_flagged():
    guard = FeedbackGuard()
    end = _feed(guard, 3.0, reported_bps=500e6, achieved_bps=40e6)
    _feed(guard, 20.0, reported_bps=45e6, achieved_bps=40e6,
          start_s=end)
    assert not guard.flagged


def test_achieved_estimate_tracks_delivery():
    guard = FeedbackGuard()
    _feed(guard, 2.0, reported_bps=10e6, achieved_bps=33e6)
    assert guard.achieved_bps == pytest.approx(33e6)


def test_guarded_sender_ignores_inflated_reports():
    """End to end: a lying client cannot hold an inflated rate."""
    from repro.baselines.base import AckContext
    from repro.core.feedback import PbeFeedback
    from repro.core.sender import PbeSender
    from repro.net.packet import Packet

    cc = PbeSender(guard=FeedbackGuard())
    t = 0
    for _ in range(4_000):   # 40 s of ACKs at 10 ms spacing
        ack = Packet(1, 0, is_ack=True)
        # Client claims 500 Mbit/s; actual delivery is 30 Mbit/s.
        ack.feedback = PbeFeedback.from_rates(500e6, 500e6, False)
        cc.on_ack(AckContext(ack=ack, now_us=t, rtt_us=40_000,
                             delivery_rate_bps=30e6,
                             newly_acked_bits=12_000,
                             inflight_bits=120_000, app_limited=False,
                             srtt_us=40_000))
        t += 10_000
    assert cc.guard.flagged
    assert cc.pacing_rate_bps(t) < 2 * 30e6 * 1.25
