"""The per-packet pacer, kept verbatim as a test oracle.

This is ``Sender._pace``/``Sender._transmit`` as they stood before
pacing trains replaced them: one heap event per data packet, the
controller asked for ``pacing_rate_bps``/``cwnd_bits`` at every one of
them, ``rate_valid_until_us`` never consulted, and a 1 ms poll whenever
the sender is blocked (zero rate or full window), whatever the answers
say.  Its ACKs take the per-ACK body of ``tests/reference_transport.py``,
bursts included.  Nothing under ``src/`` imports it;
``tests/reference_engine.py`` wires it into the reference experiment, and
``test_pacing_trains``, ``test_pacing_controllers``, ``test_pbe_sender``,
``test_sender_stateful``, ``test_transport_batch`` and ``test_cc_block``
run it beside the engine's sender.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.net.units import US_PER_S

from .reference_transport import ReferenceAckSender


class ReferenceSender(ReferenceAckSender):
    """A :class:`Sender` that wakes through the heap for every packet."""

    def _pace(self) -> None:
        self._pace_event = None
        if not self._running:
            return
        now = self.sim.now
        rate = self.cc.pacing_rate_bps(now)
        app_limited = (self.app_rate_bps is not None
                       and self.app_rate_bps < rate)
        if app_limited:
            rate = self.app_rate_bps
        if rate <= 0:
            self._pacing_active = False
            self._schedule_pacing(self._IDLE_POLL_US)
            return
        cwnd = self.cc.cwnd_bits(now)
        if cwnd is not None and self.inflight_bits + self.mss_bits > cwnd:
            # Window-limited: ACKs re-arm sending instantly.
            self._pacing_active = False
            self._schedule_pacing(self._IDLE_POLL_US)
            return
        self._transmit(app_limited=app_limited)
        gap_us = max(1, round(self.mss_bits * US_PER_S / rate))
        self._pacing_active = True
        self._schedule_pacing(gap_us)

    def _transmit(self, app_limited: bool = False) -> None:
        now = self.sim.now
        packet = Packet(self.flow_id, self.next_seq, self.mss_bits,
                        sent_time_us=now, srtt_us=self.srtt_us)
        packet.app_limited = app_limited
        packet.delivered_at_send = self.delivered_bits
        packet.delivered_time_at_send = self.delivered_time_us or now
        self.next_seq += 1
        self._outstanding[packet.seq] = (packet.size_bits, now)
        self._send_order.append(packet.seq)
        self.inflight_bits += packet.size_bits
        self.sent_packets += 1
        self._arm_rto()
        self.egress.receive(packet)
