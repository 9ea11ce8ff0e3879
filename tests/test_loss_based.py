"""Unit tests for CUBIC."""

import pytest

from repro.baselines.base import AckContext
from repro.baselines.cubic import CUBIC_BETA, INITIAL_CWND, Cubic
from repro.net.packet import Packet


def _ack(now_us, rtt_us=40_000):
    return AckContext(ack=Packet(1, 0, is_ack=True), now_us=now_us,
                      rtt_us=rtt_us, delivery_rate_bps=10e6,
                      newly_acked_bits=12_000, inflight_bits=120_000,
                      app_limited=False)


class TestCubic:
    def test_slow_start_doubles_per_rtt(self):
        cc = Cubic()
        start = cc.cwnd
        for i in range(10):
            cc.on_ack(_ack(i * 1_000))
        assert cc.cwnd == start + 10

    def test_loss_multiplies_down(self):
        cc = Cubic()
        cc.cwnd = 100.0
        cc.on_loss(1_000_000, 12_000, 0)
        assert cc.cwnd == pytest.approx(100 * CUBIC_BETA)
        assert cc.ssthresh == cc.cwnd

    def test_one_reduction_per_rtt(self):
        cc = Cubic()
        cc.cwnd = 100.0
        cc.on_loss(1_000_000, 12_000, 0)
        after_first = cc.cwnd
        cc.on_loss(1_010_000, 12_000, 0)  # same RTT: ignored
        assert cc.cwnd == after_first

    def test_cubic_growth_accelerates_past_wmax(self):
        # Large RTT keeps the TCP-friendly estimate out of the way, so
        # the cubic curve itself governs: slow near the plateau (t ≈ K),
        # accelerating beyond it.
        cc = Cubic()
        cc.cwnd = 100.0
        cc.on_loss(0, 12_000, 0)
        t, growth = 0, []
        for window in range(8):
            before = cc.cwnd
            for _ in range(200):
                t += 5_000
                cc.on_ack(_ack(t, rtt_us=400_000))
            growth.append(cc.cwnd - before)
        # Concave-then-convex: the slowest growth is at the plateau in
        # the middle, not at either end.
        plateau = growth.index(min(growth))
        assert 0 < plateau < len(growth) - 1
        assert growth[-1] > min(growth)
        assert cc.cwnd > 100.0  # eventually exceeds the old Wmax

    def test_timeout_resets(self):
        cc = Cubic()
        cc.cwnd = 80.0
        cc.on_timeout(0)
        assert cc.cwnd == INITIAL_CWND
        assert cc.ssthresh == 40.0

    def test_outputs(self):
        cc = Cubic()
        assert cc.cwnd_bits(0) == INITIAL_CWND * cc.mss_bits
        assert cc.pacing_rate_bps(0) > 0

