"""The event-per-transport-block air interface, kept verbatim as an oracle.

This is ``CellularNetwork._transmit``'s delivery and ``UserEquipment``'s
``receive_tb``/``abandon_tb``/``_release`` as they stood before the air
interface left the event heap: one ``receive_tb``/``abandon_tb`` heap
event per transport block, due one subframe later, and one
``on_packet_block`` call per *released block*.  Nothing under ``src/``
imports it; ``tests/test_air_delivery.py`` runs it beside the list the
base station now lands at the top of the next tick.  An abandoned
block marks the packet it cut short by that packet's seq in the UE's
``_corrupt`` set, as the engine does, but never clears the mark.
"""

from __future__ import annotations

from repro.cell.basestation import CellularNetwork, _HarqState
from repro.cell.ue import UserEquipment
from repro.net.packet import Packet
from repro.net.units import SUBFRAME_US
from repro.phy.dci import DciMessage
from repro.phy.error import block_error_rate, retransmission_ber
from repro.phy.harq import MAX_RETRANSMISSIONS, RETX_DELAY_SUBFRAMES


class ReferenceUserEquipment(UserEquipment):
    """A UE that hands every released transport block on by itself."""

    def receive_tb(self, tb) -> None:
        self.delivered_tbs += 1
        for released in self._reorder.insert(tb.seq, tb):
            self._release(released)

    def abandon_tb(self, tb) -> None:
        self.abandoned_tbs += 1
        if tb.partial is not None:
            self._corrupt.add(tb.partial.seq)
        self.lost_packets += len(tb.completes)
        for released in self._reorder.abandon(tb.seq):
            self._release(released)

    def _release(self, tb) -> None:
        delivered: list[Packet] = []
        for packet in tb.completes:
            if packet.seq in self._corrupt:
                self.lost_packets += 1
                continue
            delivered.append(packet)
        self.delivered_packets += len(delivered)
        if delivered and self.on_packet_block is not None:
            self.on_packet_block(delivered)


class ReferenceCellularNetwork(CellularNetwork):
    """A network whose transport blocks cross the air as heap events.

    ``_air`` stays empty, so the inherited ``_tick`` lands nothing.
    """

    def add_user(self, rnti, cells, channel, on_packet_block=None,
                 queue_packets=3000, log_allocations=False):
        ue = ReferenceUserEquipment(self.sim, rnti, on_packet_block)
        user = self._make_user(rnti, cells, channel, queue_packets, ue)
        if log_allocations:
            user.allocated_history = []
        return ue

    def _transmit(self, tb, base_ber, harq, subframe, messages,
                  used_by_user) -> None:
        if harq is None:
            harq = _HarqState(tb, base_ber)
        user = self._users.get(tb.rnti)
        if messages is not None:
            messages.append(DciMessage(
                subframe, tb.cell_id, tb.rnti, tb.n_prbs, tb.mcs,
                tb.spatial_streams, tbs_bits=tb.bits,
                new_data=(harq.attempt == 0)))
        used_by_user[tb.rnti] = used_by_user.get(tb.rnti, 0) + tb.n_prbs
        if user is None:
            return  # user departed mid-HARQ

        ber = retransmission_ber(harq.base_ber, harq.attempt)
        failed = self._rng.random() < block_error_rate(ber, tb.bits)
        if not failed:
            if user.ue is not None:
                self.sim.schedule(SUBFRAME_US, user.ue.receive_tb, tb)
            return
        if harq.attempt < MAX_RETRANSMISSIONS:
            harq.attempt += 1
            key = (tb.cell_id, subframe + RETX_DELAY_SUBFRAMES)
            self._retx.setdefault(key, []).append(harq)
            self._cell_retx_count[tb.cell_id] += 1
        elif user.ue is not None:
            self.sim.schedule(SUBFRAME_US, user.ue.abandon_tb, tb)
