"""Tests for the shared Sender endpoint machinery."""

import pytest

from repro.baselines.base import (
    AckContext,
    AckingReceiver,
    CongestionControl,
    Sender,
)
from repro.net.link import Receiver
from repro.net.sim import Simulator

from .delay_pipe import DelayPipe


class FixedCc(CongestionControl):
    """Deterministic controller for exercising the Sender."""

    name = "fixed"

    def __init__(self, rate_bps=12e6, cwnd=None):
        self.rate = rate_bps
        self.cwnd = cwnd
        self.acks: list[AckContext] = []
        self.losses: list[int] = []
        self.timeouts = 0

    def on_ack(self, ctx):
        self.acks.append(ctx)

    def on_loss(self, now_us, lost_bits, inflight_bits):
        self.losses.append(lost_bits)

    def on_timeout(self, now_us):
        self.timeouts += 1

    def pacing_rate_bps(self, now_us):
        return self.rate

    def cwnd_bits(self, now_us):
        return self.cwnd


class Selective(Receiver):
    """Forwards packets to a receiver, dropping chosen sequence numbers."""

    def __init__(self, sink, drop=()):
        self.sink = sink
        self.drop = set(drop)

    def receive(self, packet):
        if packet.seq in self.drop and not packet.is_ack:
            return
        self.sink.receive(packet)


def _loop(sim, cc, drop=(), delay_us=5_000):
    """sender -> (drop filter) -> receiver -> ack pipe -> sender."""
    sender = Sender(sim, flow_id=1, cc=cc, egress=None)
    ack_pipe = DelayPipe(sim, sender, delay_us)
    receiver = AckingReceiver(sim, 1, ack_pipe)
    data_pipe = DelayPipe(sim, Selective(receiver, drop), delay_us)
    sender.egress = data_pipe
    return sender, receiver


def test_paces_at_requested_rate():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6)  # one 12 kbit packet per ms
    sender, receiver = _loop(sim, cc)
    sender.start()
    sim.run(until_us=1_000_000)
    assert sender.sent_packets == pytest.approx(1_000, abs=2)


def test_rtt_measured_from_ack_echo():
    sim = Simulator()
    cc = FixedCc()
    sender, _ = _loop(sim, cc, delay_us=7_000)
    sender.start()
    sim.run(until_us=100_000)
    assert sender.min_rtt_us == 14_000
    assert sender.srtt_us == pytest.approx(14_000, abs=10)


def test_cwnd_blocks_sending():
    sim = Simulator()
    # cwnd of 2 packets, RTT 10 ms -> at most ~2 packets per RTT.
    cc = FixedCc(rate_bps=120e6, cwnd=2 * 12_000)
    sender, _ = _loop(sim, cc, delay_us=5_000)
    sender.start()
    sim.run(until_us=100_000)
    assert sender.sent_packets <= 25
    assert sender.inflight_bits <= 2 * 12_000


def test_delivery_rate_sample_matches_pace():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6)
    sender, _ = _loop(sim, cc)
    sender.start()
    sim.run(until_us=500_000)
    rates = [ctx.delivery_rate_bps for ctx in cc.acks[10:]]
    assert min(rates) > 0.9 * 12e6
    assert max(rates) < 1.1 * 12e6


def test_gap_triggers_loss_after_dupacks():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6)
    sender, _ = _loop(sim, cc, drop={5})
    sender.start()
    sim.run(until_us=200_000)
    assert sender.lost_packets == 1
    assert cc.losses == [12_000]


def test_lost_bits_leave_inflight():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6, cwnd=8 * 12_000)
    sender, _ = _loop(sim, cc, drop={3})
    sender.start()
    sim.run(until_us=300_000)
    # The flow keeps running; inflight did not leak the lost packet.
    assert sender.sent_packets > 20
    assert sender.lost_packets == 1


def test_rto_fires_when_all_acks_stop():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6, cwnd=4 * 12_000)
    # Drop everything after seq 3: no more ACKs, RTO must fire.
    sender, _ = _loop(sim, cc, drop=set(range(4, 10_000)))
    sender.start()
    sim.run(until_us=2_000_000)
    assert cc.timeouts >= 1
    assert sender.timeouts >= 1


def test_stop_halts_transmission():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6)
    sender, _ = _loop(sim, cc)
    sender.start()
    sim.run(until_us=50_000)
    sender.stop()
    sent = sender.sent_packets
    sim.run(until_us=200_000)
    assert sender.sent_packets == sent
    assert not sender.running


def test_cannot_start_twice():
    sim = Simulator()
    sender, _ = _loop(sim, FixedCc())
    sender.start()
    with pytest.raises(RuntimeError):
        sender.start()


def test_zero_rate_pauses_then_resumes():
    sim = Simulator()
    cc = FixedCc(rate_bps=0.0)
    sender, _ = _loop(sim, cc)
    sender.start()
    sim.run(until_us=50_000)
    assert sender.sent_packets == 0
    cc.rate = 12e6
    sim.run(until_us=150_000)
    assert sender.sent_packets > 50


def test_receiver_records_one_way_delay():
    sim = Simulator()
    cc = FixedCc(rate_bps=12e6)
    sender, receiver = _loop(sim, cc, delay_us=9_000)
    sender.start()
    sim.run(until_us=100_000)
    assert receiver.stats.packets > 0
    assert all(d == 9_000 for d in receiver.stats.delay_us)
