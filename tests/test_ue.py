"""Tests for the UE receive pipeline (reordering + corruption)."""

from repro.cell.queues import TransportBlock
from repro.cell.ue import UserEquipment
from repro.net.packet import Packet
from repro.net.sim import Simulator


def _tb(seq, completes=(), touches=None):
    tb = TransportBlock(seq=seq, rnti=1, cell_id=0, subframe=0, bits=1000,
                        n_prbs=1, mcs=10, spatial_streams=1)
    tb.completes = list(completes)
    tb.touches = list(touches if touches is not None else completes)
    return tb


def test_in_order_delivery_lands_at_its_instant():
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=lambda packets: got.extend(
        (sim.now, packet) for packet in packets))
    p = Packet(1, 0)
    sim.schedule(5_000, ue.receive_tb, _tb(0, [p]))
    sim.run()
    assert got == [(5_000, p)]
    assert ue.delivered_packets == 1


def test_out_of_order_tbs_buffered():
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=got.extend)
    p0, p1 = Packet(1, 0), Packet(1, 1)
    ue.receive_tb(_tb(1, [p1]))
    assert got == []
    assert ue.reorder_depth == 1
    ue.receive_tb(_tb(0, [p0]))
    assert got == [p0, p1]
    assert ue.reorder_depth == 0


def test_abandoned_tb_drops_and_unblocks():
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=got.extend)
    lost = Packet(1, 0)
    later = Packet(1, 1)
    ue.receive_tb(_tb(1, [later]))
    ue.abandon_tb(_tb(0, [lost]))
    assert got == [later]
    assert ue.lost_packets == 1
    assert ue.abandoned_tbs == 1


def test_packet_spanning_abandoned_tb_is_corrupt():
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=got.extend)
    spanning = Packet(1, 5)
    # TB 0 carries part of `spanning` but is abandoned; TB 1 completes it.
    ue.abandon_tb(_tb(0, completes=[], touches=[spanning]))
    ue.receive_tb(_tb(1, completes=[spanning]))
    assert got == []
    assert ue.lost_packets == 1


def test_no_callback_is_fine():
    sim = Simulator()
    ue = UserEquipment(sim, 1, on_packet_block=None)
    ue.receive_tb(_tb(0, [Packet(1, 0)]))
    assert ue.delivered_packets == 1
