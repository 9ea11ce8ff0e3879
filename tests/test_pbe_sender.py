"""Unit tests for the PBE-CC sender state machine."""

import pytest

from repro.baselines.base import AckContext
from repro.core.feedback import PbeFeedback
from repro.core.sender import (
    DRAIN,
    FALLBACK,
    INTERNET,
    RAMP_RTTS,
    STARTUP,
    WIRELESS,
    WIRELESS_PACING_GAIN,
    PbeSender,
)
from repro.net.packet import Packet
from repro.net.units import US_PER_S


def _ack(now_us, feedback, rtt_us=40_000, rate_bps=50e6):
    ack = Packet(1, 0, is_ack=True)
    ack.feedback = feedback
    # srtt_us mirrors what Sender's EWMA filter yields for a constant
    # rtt stream (PbeSender adopts the transport srtt from the ctx).
    return AckContext(ack=ack, now_us=now_us, rtt_us=rtt_us,
                      delivery_rate_bps=rate_bps, newly_acked_bits=12_000,
                      inflight_bits=120_000, app_limited=False,
                      srtt_us=rtt_us)


def _fb(target=50e6, fair=50e6, internet=False, activated=False):
    return PbeFeedback.from_rates(target, fair, internet, activated)


def _warm(cc, target=50e6, fair=50e6, count=200, start=0, gap=1_000,
          **fbkw):
    t = start
    for _ in range(count):
        cc.on_ack(_ack(t, _fb(target, fair, **fbkw)))
        t += gap
    return t


def test_starts_in_startup_at_initial_rate():
    cc = PbeSender()
    assert cc.state == STARTUP
    assert cc.pacing_rate_bps(0) == cc.initial_rate_bps


def test_linear_ramp_to_fair_share_over_three_rtts():
    cc = PbeSender()
    cc.on_ack(_ack(0, _fb(fair=60e6)))
    cc.pacing_rate_bps(0)  # arms the ramp
    ramp_us = RAMP_RTTS * 40_000
    half = cc.pacing_rate_bps(ramp_us // 2)
    assert half == pytest.approx(30e6, rel=0.15)
    full = cc.pacing_rate_bps(ramp_us)
    assert full == pytest.approx(60e6, rel=0.05)


def test_enters_wireless_after_ramp():
    cc = PbeSender()
    _warm(cc, count=200)
    assert cc.state == WIRELESS


def test_wireless_paces_above_target_with_bdp_cwnd():
    cc = PbeSender()
    t = _warm(cc, target=50e6)
    assert cc.pacing_rate_bps(t) == pytest.approx(
        WIRELESS_PACING_GAIN * 50e6)
    cwnd = cc.cwnd_bits(t)
    bdp = 50e6 * cc.rtprop_us / US_PER_S
    assert bdp < cwnd < bdp + 50e6 * 0.020 + 5 * cc.mss_bits


def test_tracks_changing_target_rate():
    cc = PbeSender()
    t = _warm(cc, target=50e6)
    cc.on_ack(_ack(t, _fb(target=20e6)))
    assert cc.target_rate_bps == pytest.approx(20e6, rel=0.01)
    assert cc.pacing_rate_bps(t) == pytest.approx(
        WIRELESS_PACING_GAIN * 20e6, rel=0.01)


def test_carrier_activation_restarts_ramp():
    cc = PbeSender()
    t = _warm(cc, target=50e6, fair=50e6)
    cc.on_ack(_ack(t, _fb(target=50e6, fair=90e6, activated=True)))
    assert cc.state == STARTUP
    # Ramp starts from the old operating rate, not from zero.
    assert cc.pacing_rate_bps(t) == pytest.approx(50e6, rel=0.1)
    t2 = _warm(cc, target=90e6, fair=90e6, start=t + 1_000)
    assert cc.state == WIRELESS
    assert cc.pacing_rate_bps(t2) == pytest.approx(
        WIRELESS_PACING_GAIN * 90e6, rel=0.05)


def test_internet_bottleneck_drains_then_probes():
    cc = PbeSender()
    t = _warm(cc)
    cc.on_ack(_ack(t, _fb(internet=True)))
    assert cc.state == DRAIN
    # Drain pacing is half the bottleneck estimate.
    assert cc.pacing_rate_bps(t) == pytest.approx(
        0.5 * cc.bbr.btlbw_bps, rel=0.05)
    # After one RTprop of internet-flagged ACKs, switch to BBR mode.
    t = _warm(cc, count=80, start=t + 1_000, internet=True)
    assert cc.state == INTERNET
    assert cc.bbr.state == "probe_bw"


def test_returns_to_wireless_when_flag_clears():
    cc = PbeSender()
    t = _warm(cc)
    t = _warm(cc, count=100, start=t, internet=True)
    assert cc.state == INTERNET
    cc.on_ack(_ack(t, _fb(internet=False)))
    assert cc.state == WIRELESS


def test_probe_cap_follows_fair_share():
    cc = PbeSender()
    t = _warm(cc, fair=30e6)
    assert cc._fair_share_cap() == pytest.approx(30e6, rel=0.01)


def test_every_data_packet_carries_the_senders_srtt():
    """The client sizes its averaging window by the srtt each data
    packet carries (§4.2.1): the sender's own estimate at that instant,
    which is also the one PBE-CC adopted from the last ACK burst."""
    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs
    from repro.net.link import Receiver

    scenario, specs = fingerprint_configs(0.3)["busy_2cc_pbe"]
    experiment = Experiment(scenario)
    handle = experiment.add_flow(specs[0])
    sender, cc = handle.sender, handle.cc
    stamps = []

    class Stamped(Receiver):
        def receive(self, packet):
            stamps.append((packet.srtt_us, sender.srtt_us, cc._srtt_us))
            egress.receive(packet)

    egress, sender.egress = sender.egress, Stamped()
    experiment.run()
    assert len(stamps) > 500
    assert all(stamp == now == adopted for stamp, now, adopted in stamps)
    assert stamps[0][0] == 0 and len({stamp for stamp, _, _ in stamps}) > 10


def test_timeout_restarts():
    cc = PbeSender()
    _warm(cc)
    cc.on_timeout(10**6)
    assert cc.state == STARTUP


def test_validation():
    with pytest.raises(ValueError):
        PbeSender(initial_rate_bps=0)


# ----------------------------------------------------------------------
# Feedback watchdog / graceful degradation
# ----------------------------------------------------------------------
def test_feedback_timeout_validation():
    with pytest.raises(ValueError):
        PbeSender(feedback_timeout_us=0)
    with pytest.raises(ValueError):
        PbeSender(feedback_timeout_us=-1)


def test_watchdog_falls_back_when_feedback_stops():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc)
    assert cc.state == WIRELESS
    # ACKs keep arriving but carry no capacity report (lost/corrupted).
    for _ in range(100):
        cc.on_ack(_ack(t, None))
        t += 1_000
    assert cc.state == FALLBACK
    assert cc.fallback_entries == 1
    # Rate control is now the embedded BBR's.
    assert cc.pacing_rate_bps(t) == cc.bbr.pacing_rate_bps(t)
    assert cc.cwnd_bits(t) == cc.bbr.cwnd_bits(t)


def test_watchdog_trips_from_rate_query_without_acks():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc)
    # Total ACK silence: only the pacing loop keeps running.
    cc.pacing_rate_bps(t + 200_000)
    assert cc.state == FALLBACK


def test_stale_feedback_does_not_steer_and_trips_watchdog():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc, target=50e6)
    stale = PbeFeedback.from_rates(5e6, 5e6, False, stale=True)
    for _ in range(100):
        cc.on_ack(_ack(t, stale))
        t += 1_000
    # The stale report's rates never reached the controller.
    assert cc.target_rate_bps == pytest.approx(50e6, rel=0.01)
    assert cc.stale_feedback_acks == 100
    assert cc.state == FALLBACK


def test_fresh_feedback_resyncs_through_startup_ramp():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc, target=50e6, fair=50e6)
    for _ in range(100):
        cc.on_ack(_ack(t, None))
        t += 1_000
    assert cc.state == FALLBACK
    resume = t
    cc.on_ack(_ack(t, _fb(target=50e6, fair=50e6)))
    # Re-entry reuses the §4.1 ramp from the fallback operating point.
    assert cc.state == STARTUP
    rate_now = cc.pacing_rate_bps(t)
    assert rate_now >= cc.initial_rate_bps
    t = _warm(cc, target=50e6, fair=50e6, start=t + 1_000)
    assert cc.state == WIRELESS
    assert cc.fallback_entries == 1
    durations = cc.state_durations_us(t)
    assert durations[FALLBACK] == pytest.approx(resume - 249_000,
                                                abs=2_000)


def test_never_reporting_client_still_falls_back():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = 0
    for _ in range(100):
        cc.on_ack(_ack(t, None))
        t += 1_000
    assert cc.state == FALLBACK
    assert cc.fallback_entries == 1


def test_watchdog_auto_timeout_has_floor():
    cc = PbeSender()
    t = _warm(cc)
    # Silence shorter than the 100 ms floor never trips the watchdog.
    cc.pacing_rate_bps(t + 90_000)
    assert cc.state == WIRELESS


def test_state_durations_cover_whole_timeline():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc)
    for _ in range(100):
        cc.on_ack(_ack(t, None))
        t += 1_000
    durations = cc.state_durations_us(t)
    assert sum(durations.values()) == t
    assert durations[FALLBACK] > 0


# ----------------------------------------------------------------------
# rate_valid_until_us: how long a pacing train may reuse one answer
# ----------------------------------------------------------------------
def _assert_answers_hold_until(cc, now_us, horizon_us):
    """The contract, checked on a deep copy so probing moves nothing:
    same rate, window and state at every instant up to the horizon, and
    the watchdog trips at the first instant past it."""
    import copy
    rate, cwnd = cc.pacing_rate_bps(now_us), cc.cwnd_bits(now_us)
    probe = copy.deepcopy(cc)
    for t in (now_us + 1, (now_us + horizon_us) // 2, horizon_us):
        assert (probe.pacing_rate_bps(t), probe.cwnd_bits(t)) == (rate, cwnd)
        assert probe.state == cc.state
    probe.pacing_rate_bps(horizon_us + 1)
    assert probe.state == FALLBACK


def test_horizon_is_now_in_startup_before_and_after_the_first_report():
    cc = PbeSender()
    assert cc.rate_valid_until_us(0) == 0          # nothing heard yet
    cc.on_ack(_ack(1_000, None))                   # an ACK, no report
    assert cc.rate_valid_until_us(1_500) == 1_500  # flat, but STARTUP
    cc.on_ack(_ack(2_000, _fb(fair=60e6)))         # first Cf: ramp armed
    assert cc.state == STARTUP
    assert cc.pacing_rate_bps(30_000) > cc.pacing_rate_bps(20_000)
    assert cc.rate_valid_until_us(20_000) == 20_000


@pytest.mark.parametrize("timeout_us", [50_000, None])
def test_horizon_is_the_watchdog_deadline_in_wireless(timeout_us):
    cc = PbeSender(feedback_timeout_us=timeout_us)
    t = _warm(cc)
    last_fresh = t - 1_000
    assert cc.state == WIRELESS
    # Unset, the timeout is max(4 x RTprop, 100 ms) = 160 ms here.
    deadline = last_fresh + (timeout_us or 4 * cc.rtprop_us)
    assert cc.rate_valid_until_us(t) == deadline
    assert cc.rate_valid_until_us(t + 7_000) == deadline  # not relative
    _assert_answers_hold_until(cc, t, deadline)


def test_horizon_is_the_watchdog_deadline_in_drain_and_internet():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc)
    cc.on_ack(_ack(t, _fb(internet=True)))
    assert cc.state == DRAIN
    assert cc.rate_valid_until_us(t) == t + 50_000
    _assert_answers_hold_until(cc, t, t + 50_000)
    t = _warm(cc, count=80, start=t + 1_000, internet=True)
    assert cc.state == INTERNET
    assert cc.rate_valid_until_us(t) == t - 1_000 + 50_000
    _assert_answers_hold_until(cc, t, t - 1_000 + 50_000)


def test_horizon_is_now_in_fallback_and_after_a_timeout():
    cc = PbeSender(feedback_timeout_us=50_000)
    t = _warm(cc)
    cc.pacing_rate_bps(t + 200_000)
    assert cc.state == FALLBACK
    assert cc.rate_valid_until_us(t + 200_000) == t + 200_000
    cc.on_timeout(t + 300_000)  # RTO: back to STARTUP
    assert cc.rate_valid_until_us(t + 300_000) == t + 300_000


def _silence_run(sender_cls):
    """Reports every 5 ms (RTT 40-45 ms) for 300 ms, then nothing.  The
    window (100 ms of margin) still has room when the 10 ms watchdog
    runs out, so it trips from the pacing loop, in the middle of a
    train."""
    from repro.net.link import PacketSink
    from repro.net.sim import Simulator

    class Waking(sender_cls):
        def _pace(self):
            wake_ups.append(self.sim.now)
            super()._pace()

    sim = Simulator()
    cc = PbeSender(feedback_timeout_us=10_000, retx_margin_us=100_000)
    wire = PacketSink()
    wake_ups = []
    sender = Waking(sim, 1, cc, wire)
    acked = 0

    def report():
        nonlocal acked
        while wire.packets[acked].sent_time_us <= sim.now - 40_000:
            sender.receive(wire.packets[acked].make_ack(
                feedback=_fb()))
            acked += 1

    for time_us in range(5_000, 300_001, 5_000):
        sim.schedule_at(time_us, report)
    sender.start()
    sim.run(until_us=450_000)
    fallback_at = next(t for t, state in cc.state_changes
                       if state == FALLBACK)
    first_fallback = next(p for p in wire.packets
                          if p.sent_time_us >= fallback_at)
    return (cc, wake_ups, len(wire.packets),
            (first_fallback.seq, first_fallback.sent_time_us))


def test_silence_mid_train_trips_the_watchdog_at_the_same_packet():
    from repro.baselines.base import Sender
    from .reference_pacer import ReferenceSender

    cc, wake_ups, sent, first = _silence_run(Sender)
    ref_cc, ref_wake_ups, ref_sent, ref_first = _silence_run(ReferenceSender)
    assert cc.fallback_entries == ref_cc.fallback_entries == 1
    assert cc.state_changes == ref_cc.state_changes
    assert (sent, first) == (ref_sent, ref_first)
    # The first packet paced past the deadline (last report + 10 ms)
    # entered the fallback — from inside a train, where the reference
    # needed a heap wake-up.
    fallback_at = cc.state_changes[-1][0]
    assert cc.state_changes[-1] == (fallback_at, FALLBACK)
    assert 310_000 < fallback_at == first[1] < 310_500
    assert fallback_at in ref_wake_ups and fallback_at not in wake_ups
