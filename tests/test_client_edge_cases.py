"""Edge cases of the PBE client and monitor plumbing."""

import pytest

from repro.core.client import PbeClient
from repro.monitor.pbe import PbeMonitor
from repro.net.link import PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.phy.dci import DciMessage, SubframeRecord

OWN = 100


def _setup(sim, **client_kwargs):
    monitor = PbeMonitor(OWN, {0: 100}, primary_cell=0,
                         own_rate_hint=lambda: (1000, 1e-6))
    sink = PacketSink(sim)
    client = PbeClient(sim, 1, sink, monitor, **client_kwargs)
    return client, monitor, sink


def _feed(monitor, subframe, prbs=50):
    rec = SubframeRecord(subframe, 0, 100)
    if prbs:
        rec.messages.append(DciMessage(subframe, 0, OWN, prbs, 12, 2,
                                       tbs_bits=prbs * 1000))
    monitor.decoder_callback(0)(rec)


def test_default_rtprop_used_without_srtt_meta():
    sim = Simulator()
    client, monitor, sink = _setup(sim, default_rtprop_us=33_000)
    _feed(monitor, 0)
    sim.run(until_us=sim.now + 5_000)
    client.receive(Packet(1, 0, sent_time_us=0))  # no srtt_us in meta
    sim.run(until_us=sim.now + 35_000)
    packet = Packet(1, 1, sent_time_us=20_000)
    client.receive(packet)
    assert len(sink.packets) == 2  # feedback produced without crashing
    # The receive-rate window spans the 33 ms default RTprop: the first
    # packet (8 ms older than that) has left it, the second is all.
    assert client._recent_bits == packet.size_bits


def test_negative_delay_margin_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        _setup(sim, delay_margin_us=-1)


def test_zero_margin_client_flaps_on_jitter():
    """The §4.2.2 motivation: with Dth = Dprop, HARQ jitter constantly
    trips the Internet-state switch."""
    sim = Simulator()
    client, monitor, _ = _setup(sim, delay_margin_us=0)
    for sf in range(40):
        _feed(monitor, sf)
    seq = 0
    # Alternate clean packets and 8 ms-retransmitted bursts longer
    # than Npkt = 6·Ct/MSS ≈ 45 packets at this cell's capacity.
    for burst in range(40):
        delay = 20_000 if burst % 2 == 0 else 28_000
        for _ in range(60):
            sim.run(until_us=sim.now + 1_000)
            p = Packet(1, seq, sent_time_us=sim.now - delay)
            p.meta["srtt_us"] = 40_000
            client.receive(p)
            seq += 1
    assert any(state == "internet" for _, state in client.state_changes)


def test_monitor_report_averaging_window_override():
    monitor = PbeMonitor(OWN, {0: 100}, primary_cell=0,
                         own_rate_hint=lambda: (1000, 1e-6),
                         averaging_window_override=1)
    for sf in range(39):
        _feed(monitor, sf, prbs=10)
    _feed(monitor, 39, prbs=90)
    # Window override 1: only the last subframe counts.
    report = monitor.report(rtprop_subframes=40)
    assert report.physical_capacity == pytest.approx(
        1000 * 100, rel=0.02)


def test_monitor_rejects_bad_override():
    with pytest.raises(ValueError):
        PbeMonitor(OWN, {0: 100}, primary_cell=0,
                   own_rate_hint=lambda: (1000, 1e-6),
                   averaging_window_override=0)


def test_unfiltered_monitor_counts_every_user():
    monitor = PbeMonitor(OWN, {0: 100}, primary_cell=0,
                         own_rate_hint=lambda: (1000, 1e-6),
                         filter_control_users=False)
    for sf in range(40):
        rec = SubframeRecord(sf, 0, 100)
        rec.messages.append(DciMessage(sf, 0, OWN, 50, 12, 2,
                                       tbs_bits=50_000))
        # A one-subframe 4-PRB control burst every 4 subframes.
        if sf % 4 == 0:
            rec.messages.append(DciMessage(sf, 0, 9_000 + sf, 4, 4, 1,
                                           tbs_bits=1_000))
        monitor.decoder_callback(0)(rec)
    report = monitor.report(rtprop_subframes=40)
    assert report.users_per_cell[0] > 5  # bursts all counted in N
