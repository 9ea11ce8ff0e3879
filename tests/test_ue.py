"""Tests for the UE receive pipeline (reordering + corruption)."""

from repro.cell.queues import TransportBlock
from repro.cell.ue import UserEquipment
from repro.net.packet import Packet
from repro.net.sim import Simulator


def _tb(seq, completes=(), partial=None):
    return TransportBlock(seq=seq, rnti=1, cell_id=0, subframe=0,
                          bits=1000, n_prbs=1, mcs=10, spatial_streams=1,
                          completes=list(completes), partial=partial)


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
    assert len(ue._reorder._held) == 1
    ue.receive_tb(_tb(0, [p0]))
    assert got == [p0, p1]
    assert len(ue._reorder._held) == 0


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
    ue.abandon_tb(_tb(0, partial=spanning))
    ue.receive_tb(_tb(1, completes=[spanning]))
    assert got == []
    assert ue.lost_packets == 1
    assert ue._corrupt == set()


def _three_block_packet(ue):
    """Packet 5 spans TBs 0-2 (TB 2 also completes packet 6); TB 1, its
    middle, is abandoned.  Returns the TB that completes it."""
    first, middle = Packet(1, 4), Packet(1, 5)
    ue.receive_tb(_tb(0, completes=[first], partial=middle))
    ue.abandon_tb(_tb(1, partial=middle))
    assert ue._corrupt == {5}
    return _tb(2, completes=[middle, Packet(1, 6)])


def test_packet_whose_middle_block_is_abandoned_is_lost_once():
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=got.extend)
    last = _three_block_packet(ue)
    ue.receive_tb(last)
    assert [p.seq for p in got] == [4, 6]
    assert ue.lost_packets == 1
    assert ue.delivered_packets == 2
    assert ue._corrupt == set()


def test_packet_whose_middle_and_last_blocks_are_abandoned_is_lost_once():
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=got.extend)
    last = _three_block_packet(ue)
    ue.abandon_tb(last)
    assert [p.seq for p in got] == [4]
    assert ue.lost_packets == 2  # packets 5 and 6, each once
    assert ue._corrupt == set()


def test_completing_block_abandoned_first_still_loses_the_packet_once():
    """A handover abandons the blocks on the cells being left at once,
    so a packet's completing block can fail before the block that cut
    it short.  The packet is counted lost once; its seq stays in the
    set, since no later block completes it."""
    sim = Simulator()
    got = []
    ue = UserEquipment(sim, 1, on_packet_block=got.extend)
    first, spanning = Packet(1, 4), Packet(1, 5)
    ue.abandon_tb(_tb(1, completes=[spanning]))   # on a cell being left
    ue.abandon_tb(_tb(0, completes=[first], partial=spanning))
    ue.receive_tb(_tb(2, completes=[Packet(1, 6)]))
    assert [p.seq for p in got] == [6]
    assert ue.lost_packets == 2  # packets 4 and 5, each once
    assert ue._corrupt == {5}


def test_no_callback_is_fine():
    sim = Simulator()
    ue = UserEquipment(sim, 1, on_packet_block=None)
    ue.receive_tb(_tb(0, [Packet(1, 0)]))
    assert ue.delivered_packets == 1
