"""Integration tests for the base-station MAC engine."""

import itertools

import numpy as np
import pytest

from repro.cell.basestation import CellularNetwork, DemandSource, UeCategory
from repro.cell.queues import TransportBlock
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel

from .reference_bursttracker import prbs_for


def _network(sim, carriers=None, **kw):
    carriers = carriers or [CarrierConfig(0, 20.0)]
    return CellularNetwork(sim, carriers, **kw)


def _offer_cbr(sim, ingress, rate_bps, duration_us, flow_id=1):
    """Push a CBR packet stream into an ingress."""
    gap = max(1, round(MSS_BITS * 1e6 / rate_bps))
    seq = itertools.count()

    def send():
        ingress.receive(Packet(flow_id, next(seq), MSS_BITS,
                               sent_time_us=sim.now))
        if sim.now < duration_us:
            sim.schedule(gap, send)

    sim.schedule(0, send)


def test_requires_carriers():
    with pytest.raises(ValueError):
        CellularNetwork(Simulator(), [])


def test_duplicate_cell_ids_rejected():
    with pytest.raises(ValueError):
        CellularNetwork(Simulator(), [CarrierConfig(0), CarrierConfig(0)])


def test_duplicate_rnti_rejected():
    sim = Simulator()
    net = _network(sim)
    net.add_user(1, [0], StaticChannel(20.0))
    with pytest.raises(ValueError):
        net.add_user(1, [0], StaticChannel(20.0))


def test_unknown_cell_rejected():
    sim = Simulator()
    net = _network(sim)
    with pytest.raises(ValueError):
        net.add_user(1, [0, 9], StaticChannel(20.0))


def test_cannot_start_twice():
    sim = Simulator()
    net = _network(sim)
    net.start()
    with pytest.raises(RuntimeError):
        net.start()


def test_low_load_delivered_with_low_delay():
    sim = Simulator()
    net = _network(sim)
    delivered = []
    net.add_user(1, [0], StaticChannel(20.0),
                 on_packet_block=lambda packets: delivered.extend(
                     (sim.now, p) for p in packets))
    net.start()
    _offer_cbr(sim, net.ingress(1), 10e6, 1_000_000)
    sim.run(until_us=1_100_000)
    bits = sum(p.size_bits for _, p in delivered)
    assert bits > 0.95 * 10e6  # ~all of the offered second of data
    delays = [(t - p.sent_time_us) / 1000 for t, p in delivered]
    assert np.median(delays) < 3.0  # scheduling + subframe latency only


def test_overload_caps_at_cell_capacity():
    sim = Simulator()
    net = _network(sim)
    delivered = []
    net.add_user(1, [0], StaticChannel(20.0),
                 on_packet_block=delivered.extend, queue_packets=200)
    net.start()
    _offer_cbr(sim, net.ingress(1), 500e6, 1_000_000)
    sim.run(until_us=1_200_000)
    bits = sum(p.size_bits for p in delivered)
    # 20 MHz at high SINR carries on the order of 100-130 Mbit/s.
    assert 80e6 < bits / 1.1 < 150e6
    assert net.user(1).queue.dropped > 0  # droptail engaged


def test_retransmission_delays_quantized_to_8ms():
    # At low SINR transport blocks fail regularly; delayed packets must
    # arrive in ~8 ms steps (Figure 8).
    sim = Simulator()
    net = _network(sim, seed=5)
    delivered = []
    net.add_user(1, [0], StaticChannel(4.0),
                 on_packet_block=lambda packets: delivered.extend(
                     (sim.now, p) for p in packets))
    net.start()
    _offer_cbr(sim, net.ingress(1), 8e6, 3_000_000)
    sim.run(until_us=3_200_000)
    delays_ms = np.array(
        [(t - p.sent_time_us) / 1000 for t, p in delivered])
    base = delays_ms.min()
    delayed = delays_ms[delays_ms > base + 6.0]
    assert delayed.size > 0
    assert np.all(delays_ms < base + 3 * 8 + 3)  # ≤ 3 chained retx


def test_in_order_delivery_despite_retx():
    sim = Simulator()
    net = _network(sim, seed=6)
    delivered = []
    net.add_user(1, [0], StaticChannel(0.0), on_packet_block=delivered.extend)
    net.start()
    _offer_cbr(sim, net.ingress(1), 10e6, 2_000_000)
    sim.run(until_us=2_300_000)
    seqs = [p.seq for p in delivered]
    assert seqs == sorted(seqs)


def test_two_users_share_equally():
    sim = Simulator()
    net = _network(sim)
    got = {1: [], 2: []}
    for rnti in (1, 2):
        net.add_user(rnti, [0], StaticChannel(20.0, seed=rnti),
                     on_packet_block=got[rnti].extend, queue_packets=400)
    net.start()
    for rnti in (1, 2):
        _offer_cbr(sim, net.ingress(rnti), 400e6, 1_000_000, flow_id=rnti)
    sim.run(until_us=1_100_000)
    bits = [sum(p.size_bits for p in got[r]) for r in (1, 2)]
    assert abs(bits[0] - bits[1]) / max(bits) < 0.05


def test_exogenous_user_occupies_prbs():
    class Constant(DemandSource):
        def bits(self, subframe):
            return 50_000

    sim = Simulator()
    net = _network(sim)
    records = []
    net.attach_monitor(0, records.append)
    net.add_exogenous_user(2, [0], StaticChannel(20.0), Constant())
    net.start()
    sim.run(until_us=200_000)
    steady = records[50:]
    assert all(prbs_for(r, 2) > 0 for r in steady)
    assert all(r.idle_prbs > 0 for r in steady)  # demand below capacity


def test_user_removal_stops_service():
    sim = Simulator()
    net = _network(sim)
    delivered = []
    net.add_user(1, [0], StaticChannel(20.0), on_packet_block=delivered.extend)
    net.start()
    _offer_cbr(sim, net.ingress(1), 10e6, 500_000)
    sim.run(until_us=250_000)
    before = len(delivered)
    assert before > 0
    net.remove_user(1)
    sim.run(until_us=600_000)
    assert len(delivered) <= before + 2  # nothing new after removal


def test_monitor_records_idle_accounting():
    sim = Simulator()
    net = _network(sim, control_arrivals_per_subframe=0.5, seed=9)
    records = []
    net.attach_monitor(0, records.append)
    net.add_user(1, [0], StaticChannel(20.0))
    net.start()
    _offer_cbr(sim, net.ingress(1), 20e6, 500_000)
    sim.run(until_us=500_000)
    for record in records:
        assert record.idle_prbs >= 0  # never over-allocated
        assert record.total_prbs == 100


def test_ue_category_limits_rate():
    sim = Simulator()
    net = _network(sim)
    low = net.add_user(1, [0], StaticChannel(30.0),
                       category=UeCategory(max_mcs=9, max_streams=1))
    net.start()
    sim.run(until_us=10_000)
    user = net.user(1)
    assert user.current_mcs <= 9
    assert user.current_streams == 1


def test_cqi_delay_uses_stale_reports():
    """Link adaptation with CQI delay picks the MCS the channel had
    N subframes ago; instantaneous errors still use the live SINR."""
    from repro.phy.channel import TraceChannel
    sim = Simulator()
    net = _network(sim, control_arrivals_per_subframe=0.0)
    net.cqi_delay_subframes = 6
    # A sharp RSSI step at t = 50 ms.
    channel = TraceChannel([(0, -90.0), (50_000, -90.0),
                            (50_001, -101.0)], fading_std_db=0.0)
    net.add_user(1, [0], channel)
    net.start()
    sim.run(until_us=52_000)
    user = net.user(1)
    from repro.phy.mcs import sinr_to_mcs
    from repro.phy.channel import rssi_to_sinr_db
    stale_mcs = sinr_to_mcs(rssi_to_sinr_db(-90.0))
    fresh_mcs = sinr_to_mcs(rssi_to_sinr_db(-101.0))
    assert user.current_mcs == stale_mcs != fresh_mcs
    sim.run(until_us=60_000)  # the report catches up
    assert net.user(1).current_mcs == fresh_mcs


def test_cqi_delay_validation():
    with pytest.raises(ValueError):
        CellularNetwork(Simulator(), [CarrierConfig(0)],
                        cqi_delay_subframes=-1)


def test_cqi_delay_increases_error_rate_under_fast_fading():
    """Stale link adaptation over a fast-fading channel causes more
    HARQ retransmissions than oracle adaptation."""
    from repro.phy.channel import GaussMarkovChannel

    def retx_fraction(delay):
        sim = Simulator()
        net = _network(sim, seed=4)
        net.cqi_delay_subframes = delay
        got = []
        net.add_user(1, [0],
                     GaussMarkovChannel(14.0, std_db=5.0, memory=0.5,
                                        coherence_us=5_000, seed=2),
                     on_packet_block=got.extend)
        records = []
        net.attach_monitor(0, records.append)
        net.start()
        _offer_cbr(sim, net.ingress(1), 30e6, 2_000_000)
        sim.run(until_us=2_200_000)
        new = retx = 0
        for rec in records:
            for m in rec.messages:
                if m.rnti != 1:
                    continue
                if m.new_data:
                    new += 1
                else:
                    retx += 1
        return retx / max(1, new)

    assert retx_fraction(8) > retx_fraction(0)


# ---------------------------------------------------------------------------
# Stamped arrivals: packets a Link hands over ahead of time
# ---------------------------------------------------------------------------

def _link_into(sim, net, rnti, delay_us=18_000):
    return Link(sim, net.ingress(rnti), rate_bps=1e9, delay_us=delay_us)


def test_wire_packets_cost_no_event_and_land_on_arrival():
    sim = Simulator()
    net = _network(sim)
    net.add_user(1, [0], StaticChannel(20.0))
    link = _link_into(sim, net, 1)
    before = len(sim._heap) - sim._cancelled
    for seq in range(5):
        link.receive(Packet(1, seq, MSS_BITS))
    assert len(sim._heap) - sim._cancelled == before  # parked, not scheduled
    assert len(net.ingress(1).wire) == 5
    sim.run(until_us=17_999)
    assert net.user(1).queue.backlog_bits == 0  # none has arrived yet
    sim.run(until_us=18_100)  # 12 µs of serialization each
    assert net.user(1).queue.backlog_bits == 5 * MSS_BITS
    assert not net.ingress(1).wire


def test_tie_rule_boundary_arrival_is_schedulable_in_that_subframe():
    """Rule 2: arrival instant == subframe boundary -> served in it."""
    sim = Simulator()
    net = _network(sim)
    got = []
    net.add_user(1, [0], StaticChannel(20.0), log_allocations=True,
                 on_packet_block=got.extend)
    net.start()
    # 12 µs serialization + 19 988 µs propagation = arrival at 20 000.
    link = _link_into(sim, net, 1, delay_us=19_988)
    link.receive(Packet(1, 0, MSS_BITS))
    assert net.ingress(1).wire[0][0] == 20_000
    sim.run(until_us=30_000)
    assert net.user(1).allocated_history[0][0] == 20
    # One microsecond later it waits for subframe 21.
    link = _link_into(sim, net, 1, delay_us=19_989)
    sim.run(until_us=100_000)
    link.receive(Packet(1, 1, MSS_BITS))
    assert net.ingress(1).wire[0][0] == 120_001
    sim.run(until_us=130_000)
    served = [sf for sf, _, _ in net.user(1).allocated_history]
    assert min(sf for sf in served if sf > 100) == 121
    assert len(got) == 2


def test_unrouted_packets_are_counted():
    sim = Simulator()
    net = _network(sim)
    net.start()
    net.ingress(7).receive(Packet(7, 0, MSS_BITS))  # never attached
    link = _link_into(sim, net, 7)
    link.receive(Packet(7, 1, MSS_BITS))
    sim.run(until_us=50_000)
    assert net.unrouted_packets == 2


def test_detach_reattach_resolves_rnti_at_arrival_time():
    """Packets on the wire when their user leaves are unrouted even if
    the RNTI is re-attached before the next subframe reads the queues —
    and none of them lands in the newcomer's queue."""
    sim = Simulator()
    net = _network(sim)
    net.add_user(1, [0], StaticChannel(20.0))
    link = _link_into(sim, net, 1)
    for seq in range(20):
        link.receive(Packet(1, seq, MSS_BITS))  # arrive by 18 240 µs
    sim.run(until_us=18_100)  # no tick: the network is not started
    net.remove_user(1)        # the 8 arrived so far went to the old queue
    on_wire = len(net.ingress(1).wire)
    assert 0 < on_wire < 20
    sim.run(until_us=18_500)  # the rest arrive at a detached RNTI
    net.add_user(1, [0], StaticChannel(20.0))
    assert net.unrouted_packets == on_wire
    assert net.user(1).queue.backlog_bits == 0
    assert not net.ingress(1).wire
    link.receive(Packet(1, 99, MSS_BITS))  # the newcomer's own traffic
    sim.run(until_us=40_000)
    assert net.user(1).queue.backlog_bits == MSS_BITS
    assert net.unrouted_packets == on_wire


def test_two_links_into_one_ingress_keep_arrival_order():
    """The wire is a FIFO: a packet that would overtake it is refused
    and comes as an event instead, so the queue still fills by arrival."""
    sim = Simulator()
    net = _network(sim)
    net.add_user(1, [0], StaticChannel(20.0))
    slow = _link_into(sim, net, 1, delay_us=50_000)
    fast = _link_into(sim, net, 1, delay_us=1_000)
    slow.receive(Packet(1, 0, MSS_BITS))
    before = len(sim._heap) - sim._cancelled
    fast.receive(Packet(1, 1, MSS_BITS))
    assert len(sim._heap) - sim._cancelled == before + 1
    slow.receive(Packet(1, 2, MSS_BITS))
    sim.run(until_us=60_000)
    queue = net.user(1).queue
    tb = TransportBlock(0, 1, 0, 0, queue.backlog_bits, 1, 0, 1)
    queue.pull(queue.backlog_bits, tb)
    assert [packet.seq for packet in tb.completes] == [1, 0, 2]
