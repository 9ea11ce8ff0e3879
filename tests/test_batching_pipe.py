"""Tests for the uplink ACK-batching pipe."""

import pytest
from hypothesis import given, strategies as st

from repro.net.link import BatchingPipe, PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.perf import PerfCounters


def _packet(seq):
    return Packet(flow_id=1, seq=seq, size_bits=360)


def test_single_packet_waits_for_grant_boundary():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=10_000,
                        batch_interval_us=5_000)
    sim.schedule(1_200, pipe.receive, _packet(0))
    sim.run()
    # Held until the 5 ms boundary, then 10 ms propagation.
    assert sink.arrival_us[0] == 5_000 + 10_000


def test_packets_in_same_interval_released_together():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=0, batch_interval_us=5_000)
    for t, seq in ((100, 0), (2_000, 1), (4_900, 2)):
        sim.schedule(t, pipe.receive, _packet(seq))
    sim.run()
    assert sink.arrival_us == [5_000] * 3
    assert pipe.batches == 1


def test_packet_on_grant_boundary_rides_it():
    # Arriving exactly on a boundary must not hold the packet a full
    # extra cycle (the pre-fix behaviour computed wait = interval).
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=0, batch_interval_us=5_000)
    sim.schedule(5_000, pipe.receive, _packet(0))
    sim.run()
    assert sink.arrival_us == [5_000]
    assert pipe.batches == 1


def test_later_packet_takes_next_batch():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=0, batch_interval_us=5_000)
    sim.schedule(100, pipe.receive, _packet(0))
    sim.schedule(6_000, pipe.receive, _packet(1))
    sim.run()
    assert sink.arrival_us == [5_000, 10_000]
    assert pipe.batches == 2


def test_order_preserved_within_batch():
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=0, batch_interval_us=5_000)
    for seq in range(5):
        sim.schedule(100 + seq, pipe.receive, _packet(seq))
    sim.run()
    assert [p.seq for p in sink.packets] == list(range(5))


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BatchingPipe(sim, PacketSink(), delay_us=-1)
    with pytest.raises(ValueError):
        BatchingPipe(sim, PacketSink(), delay_us=0, batch_interval_us=0)


@given(st.lists(st.integers(min_value=0, max_value=50_000), min_size=1,
                max_size=30))
def test_every_packet_arrives_with_bounded_extra_delay(send_times):
    sim = Simulator()
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=7_000,
                        batch_interval_us=5_000)
    for i, t in enumerate(sorted(send_times)):
        packet = _packet(i)
        packet.sent_time_us = t
        sim.schedule(t, pipe.receive, packet)
    sim.run()
    assert len(sink.packets) == len(send_times)
    for packet, arrival_us in zip(sink.packets, sink.arrival_us):
        extra = arrival_us - packet.sent_time_us - 7_000
        # Strictly less than one grant period: a boundary arrival
        # rides its own boundary (extra = 0), never the next one.
        assert 0 <= extra < 5_000


def _ack(seq, flow_id=1):
    data = Packet(flow_id=flow_id, seq=seq, size_bits=12_000,
                  sent_time_us=0)
    return data.make_ack()


def test_batched_mode_delivers_one_event_per_flush():
    sim = Simulator()
    sink = PacketSink(sim)
    perf = PerfCounters()
    sim = Simulator()
    sim.perf = perf
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=1_000,
                        batch_interval_us=5_000)
    for t, seq in ((100, 0), (2_000, 1), (4_900, 2)):
        sim.schedule(t, pipe.receive, _ack(seq))
    sim.run()
    # PacketSink defines only ``receive``: its inherited
    # ``receive_batch`` is the per-packet loop, so delivery content
    # matches per-ACK events.
    assert [p.seq for p in sink.packets] == [0, 1, 2]
    assert sink.arrival_us == [6_000] * 3
    assert pipe.forwarded == 3 and pipe.batches == 1
    # Three arrivals, one flush, one delivery.
    assert perf.events_scheduled == 3 + 1 + 1


def test_single_packet_flush_is_a_batch_of_one():
    perf = PerfCounters()
    sim = Simulator()
    sim.perf = perf
    sink = PacketSink(sim)
    pipe = BatchingPipe(sim, sink, delay_us=0, batch_interval_us=5_000)
    sim.schedule(100, pipe.receive, _ack(0))
    sim.run()
    assert [p.seq for p in sink.packets] == [0]
    assert pipe.forwarded == 1
    assert (perf.ack_batches, perf.acks_batched) == (1, 1)
