"""Unit tests for the PBE-CC mobile client (§4.2.2)."""

import pytest

from repro.core.client import (
    DELAY_MARGIN_US,
    INTERNET,
    WIRELESS,
    PbeClient,
)
from repro.monitor.pbe import PbeMonitor
from repro.net.link import PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.phy.dci import DciMessage, SubframeRecord

OWN = 100


def _client(sim, rate=1000, ber=1e-6):
    monitor = PbeMonitor(OWN, {0: 100}, primary_cell=0,
                         own_rate_hint=lambda: (rate, ber))
    sink = PacketSink(sim)
    client = PbeClient(sim, flow_id=1, uplink=sink, monitor=monitor)
    return client, monitor, sink


def _feed_monitor(monitor, subframe, prbs=50, bpp=1000):
    rec = SubframeRecord(subframe, 0, 100)
    if prbs:
        rec.messages.append(DciMessage(subframe, 0, OWN, prbs, 12, 2,
                                       tbs_bits=prbs * bpp))
    monitor.decoder_callback(0)(rec)


def _deliver(sim, client, delay_us, n=1, gap_us=1_000, srtt_us=40_000):
    """Simulate n packets arriving with the given one-way delay."""
    seq = getattr(client, "_test_seq", 0)
    for _ in range(n):
        sim.run(until_us=sim.now + gap_us)
        p = Packet(1, seq, sent_time_us=sim.now - delay_us, srtt_us=srtt_us)
        client.receive(p)
        seq += 1
    client._test_seq = seq
    return seq


def test_acks_carry_pbe_feedback():
    sim = Simulator()
    client, monitor, sink = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    _deliver(sim, client, delay_us=20_000, n=3)
    assert len(sink.packets) == 3
    fb = sink.packets[-1].feedback
    assert fb.target_rate_bps > 0
    assert not fb.internet_bottleneck


def test_receive_rate_window_stays_bounded_in_wireless_state():
    """Regression: the receive-rate deque was appended on every packet
    but only pruned on the Internet-state branch, so a flow that stayed
    wireless-bottlenecked grew it by one entry per packet forever."""
    sim = Simulator()
    client, monitor, _ = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    srtt_us = 40_000
    n = 2_000
    _deliver(sim, client, delay_us=20_000, n=n, srtt_us=srtt_us)
    assert client.state == WIRELESS            # never left wireless
    # Entries older than one RTprop are pruned on every feedback call:
    # at 1 ms spacing the window holds ~srtt/gap entries, not n.
    assert len(client._recent) <= srtt_us // 1_000 + 1
    assert client._recent_bits == sum(b for _, b in client._recent)


def test_dprop_tracks_minimum():
    sim = Simulator()
    client, monitor, _ = _client(sim)
    _feed_monitor(monitor, 0)
    _deliver(sim, client, delay_us=30_000, n=5)
    _deliver(sim, client, delay_us=22_000, n=1)
    _deliver(sim, client, delay_us=35_000, n=5)
    assert client.dprop_us == 22_000
    assert client.delay_margin_us == DELAY_MARGIN_US


def test_margin_matches_paper():
    # Dth = Dprop + 3·8 + 3 ms.
    assert DELAY_MARGIN_US == 27_000


def test_stays_wireless_below_threshold():
    sim = Simulator()
    client, monitor, _ = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    _deliver(sim, client, delay_us=20_000, n=200)
    # Delay jitter below the margin never triggers the switch.
    _deliver(sim, client, delay_us=40_000, n=200)
    assert client.state == WIRELESS


def test_switches_to_internet_after_npkt_consecutive():
    sim = Simulator()
    client, monitor, _ = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    _deliver(sim, client, delay_us=20_000, n=50)
    assert client.state == WIRELESS
    _deliver(sim, client, delay_us=60_000, n=200)  # > Dprop + 27 ms
    assert client.state == INTERNET
    assert any(state == INTERNET for _, state in client.state_changes)


def test_brief_spike_does_not_switch():
    sim = Simulator()
    client, monitor, _ = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    _deliver(sim, client, delay_us=20_000, n=50)
    _deliver(sim, client, delay_us=60_000, n=2)   # short spike
    _deliver(sim, client, delay_us=20_000, n=50)
    assert client.state == WIRELESS


def test_internet_feedback_carries_state_bit_and_fair_share():
    sim = Simulator()
    client, monitor, sink = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    _deliver(sim, client, delay_us=20_000, n=20)
    _deliver(sim, client, delay_us=60_000, n=200)
    fb = sink.packets[-1].feedback
    assert fb.internet_bottleneck
    assert fb.fair_rate_bps > 0


def test_switch_back_requires_low_delay_and_fair_rate():
    sim = Simulator()
    client, monitor, _ = _client(sim)
    for sf in range(40):
        _feed_monitor(monitor, sf)
    _deliver(sim, client, delay_us=20_000, n=20)
    _deliver(sim, client, delay_us=60_000, n=200)
    assert client.state == INTERNET
    # Low delay but tiny receive rate (huge gaps): stays in internet.
    _deliver(sim, client, delay_us=20_000, n=30, gap_us=50_000)
    assert client.state == INTERNET
    # Low delay at a rate near the fair share: back to wireless.
    _deliver(sim, client, delay_us=20_000, n=400, gap_us=120)
    assert client.state == WIRELESS


def test_state_fractions_sum_to_one():
    sim = Simulator()
    client, monitor, _ = _client(sim)
    _feed_monitor(monitor, 0)
    _deliver(sim, client, delay_us=20_000, n=10)
    fractions = client.state_fractions(sim.now)
    assert fractions[WIRELESS] + fractions[INTERNET] == pytest.approx(1.0)
    assert fractions[WIRELESS] > 0.99
