"""Tests for wired links, delay pipes and droptail queues."""

import pytest

from repro.net.link import Link, PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import transmission_time_us

from .delay_pipe import DelayPipe


def _queue_delay_estimate_us(link, size_bits):
    """Exact wait + serialization a ``size_bits`` arrival would see
    (the in-flight packet's remainder included)."""
    return (max(0, link._busy_until - link.sim.now)
            + transmission_time_us(size_bits, link.rate_bps))


def _packet(seq=0, bits=12_000):
    return Packet(flow_id=1, seq=seq, size_bits=bits)


def test_delay_pipe_delivers_after_exact_delay():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = DelayPipe(sim, sink, delay_us=5_000)
    pipe.receive(_packet())
    sim.run()
    assert len(sink.packets) == 1
    assert sink.arrival_us[0] == 5_000


def test_delay_pipe_rejects_negative_delay():
    with pytest.raises(ValueError):
        DelayPipe(Simulator(), PacketSink(), delay_us=-1)


def test_link_serialization_plus_propagation():
    sim = Simulator()
    sink = PacketSink(sim)
    # 12000 bits at 12 Mbit/s = 1 ms serialization, plus 2 ms propagation.
    link = Link(sim, sink, rate_bps=12e6, delay_us=2_000)
    link.receive(_packet())
    sim.run()
    assert sink.arrival_us[0] == 3_000


def test_link_queue_serializes_back_to_back():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0)
    for seq in range(3):
        link.receive(_packet(seq))
    sim.run()
    arrivals = sink.arrival_us
    assert arrivals == [1_000, 2_000, 3_000]


def test_link_droptail_drops_beyond_queue_limit():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0, queue_packets=2)
    # One packet starts transmitting immediately; 2 queue; rest drop.
    for seq in range(6):
        link.receive(_packet(seq))
    sim.run()
    assert len(sink.packets) == 3
    assert link.dropped == 3
    assert link.forwarded == 3


def test_link_preserves_fifo_order():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=100e6, delay_us=100)
    for seq in range(10):
        link.receive(_packet(seq))
    sim.run()
    assert [p.seq for p in sink.packets] == list(range(10))


def test_link_queue_depth_and_estimate():
    sim = Simulator()
    link = Link(sim, PacketSink(sim), rate_bps=12e6, delay_us=0)
    for seq in range(4):
        link.receive(_packet(seq))
    # One being transmitted, three queued.
    assert link.queue_depth == 3
    est = _queue_delay_estimate_us(link, 12_000)
    # 3 queued + the new one + the untransmitted remainder of the
    # in-flight packet, 1 ms each.
    assert est == 5_000


def test_link_estimate_counts_inflight_remainder():
    sim = Simulator()
    link = Link(sim, PacketSink(sim), rate_bps=12e6, delay_us=0)
    link.receive(_packet(0))  # serializes over [0, 1000) µs
    assert _queue_delay_estimate_us(link, 12_000) == 2_000
    # Halfway through serialization only half the packet remains.
    sim.run(until_us=500)
    assert _queue_delay_estimate_us(link, 12_000) == 1_000 + 500


def test_link_rejects_bad_config():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, PacketSink(), rate_bps=0, delay_us=0)
    with pytest.raises(ValueError):
        Link(sim, PacketSink(), rate_bps=1e6, delay_us=0, queue_packets=0)


def test_link_resumes_after_idle():
    sim = Simulator()
    sink = PacketSink(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=0)
    link.receive(_packet(0))
    sim.run()
    sim.schedule_at(10_000, link.receive, _packet(1))
    sim.run()
    assert sink.arrival_us == [1_000, 11_000]


def test_link_interleaved_sizes_each_get_their_own_serialization_time():
    """The link remembers the last size's serialization time; a packet
    of another size must not be served with it."""
    sim = Simulator()
    sink = PacketSink(sim)
    rate_bps = 3.7e6
    link = Link(sim, sink, rate_bps=rate_bps, delay_us=0)
    sizes = [12_000, 400, 12_000, 12_000, 400, 400, 7, 12_000]
    for seq, size_bits in enumerate(sizes):
        link.receive(Packet(flow_id=1, seq=seq, size_bits=size_bits))
    sim.run()
    arrivals = sink.arrival_us
    expected, clock = [], 0
    for size_bits in sizes:
        clock += transmission_time_us(size_bits, rate_bps)
        expected.append(clock)
    assert arrivals == expected
