"""Unit tests for Copa, Verus and Sprout."""

import pytest

from repro.baselines.base import AckContext
from repro.baselines.copa import Copa
from repro.baselines.sprout import Sprout
from repro.baselines.verus import Verus
from repro.net.packet import Packet


def _ack(now_us, rtt_us=40_000, bits=12_000):
    return AckContext(ack=Packet(1, 0, is_ack=True), now_us=now_us,
                      rtt_us=rtt_us, delivery_rate_bps=10e6,
                      newly_acked_bits=bits, inflight_bits=120_000,
                      app_limited=False)


class TestCopa:
    def test_grows_without_standing_queue(self):
        cc = Copa()
        start = cc.cwnd
        for i in range(200):
            cc.on_ack(_ack(i * 1_000, rtt_us=40_000))  # constant RTT
        assert cc.cwnd > start

    def test_backs_off_with_large_standing_queue(self):
        cc = Copa()
        cc.cwnd = 100.0
        # RTTmin 40 ms established, then standing delay of 40 ms extra.
        for i in range(50):
            cc.on_ack(_ack(i * 1_000, rtt_us=40_000))
        grown = cc.cwnd
        for i in range(50, 400):
            cc.on_ack(_ack(i * 1_000, rtt_us=80_000))
        assert cc.cwnd < grown

    def test_equilibrium_tracks_target(self):
        # With dq = 10 ms and delta = 0.5, target is 200 packets/s.
        cc = Copa()
        for i in range(2_000):
            rtt = 40_000 if i < 50 else 50_000
            cc.on_ack(_ack(i * 2_000, rtt_us=rtt))
        # current rate = cwnd / RTTstanding should hover near target.
        rate_pps = cc.cwnd * 1e6 / 50_000
        assert 100 < rate_pps < 400

    def test_loss_halves(self):
        cc = Copa()
        cc.cwnd = 50.0
        cc.on_loss(0, 12_000, 0)
        assert cc.cwnd == 25.0


class TestVerus:
    def test_slow_start_exits_on_delay_growth(self):
        cc = Verus()
        for i in range(20):
            cc.on_ack(_ack(i * 1_000, rtt_us=20_000))
        assert cc._in_slow_start
        # Delay triples: slow start must end.
        for i in range(20, 200):
            cc.on_ack(_ack(i * 1_000, rtt_us=65_000))
        assert not cc._in_slow_start

    def test_learns_delay_profile(self):
        cc = Verus()
        for i in range(300):
            cc.on_ack(_ack(i * 1_000, rtt_us=30_000 + 100 * (i % 50)))
        assert len(cc._profile) >= 1

    def test_loss_halves_window(self):
        cc = Verus()
        cc.cwnd = 40.0
        cc._in_slow_start = False
        cc.on_loss(10**6, 12_000, 0)
        assert cc.cwnd == 20.0

    def test_backoff_when_delay_ratio_exceeded(self):
        cc = Verus()
        cc._in_slow_start = False
        cc._d_min_us = 20_000
        cc.cwnd = 100.0
        # Populate the profile's low-delay region first, then push the
        # observed delay far above the ratio threshold.
        for i in range(50):
            cc.on_ack(_ack(i * 6_000, rtt_us=25_000))
        for i in range(50, 300):
            cc.on_ack(_ack(i * 6_000, rtt_us=90_000))  # ratio 4.5 > R
        # The target delay keeps being reduced; the window settles near
        # the profile's learned value for that delay instead of growing.
        assert cc.cwnd <= 130.0


class TestSprout:
    def test_window_tracks_forecast(self):
        cc = Sprout()
        for i in range(500):
            cc.on_ack(_ack(i * 1_000))  # 12 Mbit/s steady
        # 12 Mbit/s over a 100 ms horizon = 100 packets.
        assert cc.cwnd == pytest.approx(100, rel=0.3)

    def test_variance_makes_forecast_cautious(self):
        # Same mean rate, but the jittery link alternates between fast
        # and slow *ticks* — the 5th-percentile forecast must shrink.
        steady, jittery = Sprout(), Sprout()
        for i in range(500):
            steady.on_ack(_ack(i * 1_000, bits=12_000))
            jittery.on_ack(_ack(i * 1_000,
                                bits=22_000 if (i // 20) % 2 else 2_000))
        assert jittery.cwnd < steady.cwnd * 0.8

    def test_timeout_halves_estimate(self):
        cc = Sprout()
        for i in range(200):
            cc.on_ack(_ack(i * 1_000))
        before = cc._mean_bps
        cc.on_timeout(10**6)
        assert cc._mean_bps == before / 2
        assert cc.cwnd == 2.0
