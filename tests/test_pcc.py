"""Unit tests for PCC Allegro and PCC Vivace."""

import pytest

from repro.baselines import pcc
from repro.baselines.base import AckContext
from repro.baselines.pcc import (
    LOSS_THRESHOLD,
    PccAllegro,
    PccVivace,
    _MonitorInterval,
)
from repro.net.packet import Packet


def _ack(now_us, rtt_us=40_000, bits=12_000):
    return AckContext(ack=Packet(1, 0, is_ack=True), now_us=now_us,
                      rtt_us=rtt_us, delivery_rate_bps=10e6,
                      newly_acked_bits=bits, inflight_bits=120_000,
                      app_limited=False)


def _mi(rate=10e6, acked=100_000, lost=0, rtt0=40_000, rtt1=40_000,
        span=100_000):
    mi = _MonitorInterval(rate, 0, span)
    mi.acked_bits = acked
    mi.lost_bits = lost
    mi.first_rtt_us = rtt0
    mi.last_rtt_us = rtt1
    mi.acks = 10
    return mi


class TestMonitorInterval:
    def test_throughput(self):
        assert _mi(acked=100_000, span=100_000).throughput_bps == 1e6

    def test_loss_rate(self):
        assert _mi(acked=90, lost=10).loss_rate == pytest.approx(0.1)
        assert _mi(acked=0, lost=0).loss_rate == 0.0

    def test_rtt_gradient(self):
        mi = _mi(rtt0=40_000, rtt1=50_000, span=100_000)
        assert mi.rtt_gradient_s_per_s == pytest.approx(0.1)


class TestAllegro:
    def test_utility_rewards_lossless_throughput(self):
        cc = PccAllegro()
        high = cc.utility(_mi(acked=200_000))
        low = cc.utility(_mi(acked=50_000))
        assert high > low > 0

    def test_utility_cliff_at_loss_threshold(self):
        cc = PccAllegro()
        clean = cc.utility(_mi(acked=100_000, lost=0))
        total = 100_000
        lossy_bits = int(total * (LOSS_THRESHOLD + 0.10))
        lossy = cc.utility(_mi(acked=total - lossy_bits, lost=lossy_bits))
        assert lossy < 0 < clean

    def test_starting_doubles_until_utility_drops(self):
        cc = PccAllegro()
        r1 = cc.decide(1e6, 1.0)
        assert r1 == 2e6
        r2 = cc.decide(r1, 2.0)
        assert r2 == 4e6
        r3 = cc.decide(r2, 1.5)  # utility fell: halve and exit starting
        assert r3 == 2e6
        assert not cc._starting

    def test_emergency_brake_on_heavy_loss(self):
        cc = PccAllegro()
        cc._starting = False
        cc.utility(_mi(acked=50_000, lost=50_000))  # 50% loss observed
        assert cc.decide(10e6, -5.0) == 5e6

    def test_end_to_end_rate_evolution(self, monkeypatch):
        monkeypatch.setattr(pcc, "INITIAL_RATE_BPS", 1e6)
        cc = PccAllegro(seed=1)
        t = 0
        for _ in range(2_000):
            t += 5_000
            cc.on_ack(_ack(t))
        assert cc.rate_bps >= 120_000  # floor respected


class TestVivace:
    def test_delay_gradient_punishes_utility(self):
        cc = PccVivace()
        flat = cc.utility(_mi(rtt0=40_000, rtt1=40_000))
        rising = cc.utility(_mi(rtt0=40_000, rtt1=60_000))
        assert rising < flat

    def test_negative_gradient_not_rewarded(self):
        cc = PccVivace()
        falling = cc.utility(_mi(rtt0=60_000, rtt1=40_000))
        flat = cc.utility(_mi(rtt0=40_000, rtt1=40_000))
        assert falling == pytest.approx(flat)

    def test_gradient_ascent_moves_toward_better_rate(self, monkeypatch):
        monkeypatch.setattr(pcc, "INITIAL_RATE_BPS", 10e6)
        cc = PccVivace()
        base = cc._base_rate
        cc.decide(10e6 * 1.05, util=10.0)   # up-probe did better
        cc.decide(10e6 * 0.95, util=5.0)
        assert cc._base_rate > base

    def test_timeout_halves_rate(self):
        cc = PccVivace()
        cc.on_timeout(0)
        assert cc.rate_bps == pcc.INITIAL_RATE_BPS / 2

    def test_rate_floor(self, monkeypatch):
        monkeypatch.setattr(pcc, "INITIAL_RATE_BPS", 200_000)
        cc = PccVivace()
        for util in [-100.0] * 50:
            cc.rate_bps = max(120_000, cc.decide(cc.rate_bps, util))
        assert cc.rate_bps >= 120_000

