"""The per-packet transport endpoints, kept verbatim as oracles.

These are ``Sender.receive`` / ``_detect_losses``,
``AckingReceiver.receive`` / ``feedback_for`` and ``PbeClient``'s
``feedback_for`` with its helpers as they stood before every endpoint
took a burst: one ACK folded at a time, one feedback computed per
packet, one ``uplink.receive`` per ACK.  Each class's burst entry points
are the per-packet loop of :class:`repro.net.link.Receiver`, so wired
into an experiment they deliver and acknowledge packet by packet.
Nothing under ``src/`` imports this module; ``tests/reference_engine.py``
wires these classes into the reference experiment, and
``test_transport_batch``, ``test_cc_block``, ``test_pacing_trains``,
``test_sender_stateful`` and ``test_air_delivery`` run them beside the
burst bodies.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.base import AckContext, AckingReceiver, Sender
from repro.core.client import (FAIR_SHARE_FRACTION, INTERNET,
                               SWITCH_SUBFRAMES, WIRELESS, PbeClient)
from repro.core.feedback import PbeFeedback
from repro.net.link import Receiver
from repro.net.packet import Packet
from repro.net.units import MSS_BITS, US_PER_MS, US_PER_S


class ReferenceAckSender(Sender):
    """A :class:`Sender` that folds every ACK on its own."""

    receive_batch = Receiver.receive_batch

    def receive(self, packet: Packet) -> None:
        if not packet.is_ack or packet.flow_id != self.flow_id:
            return
        now = self.sim.now
        entry = self._outstanding.pop(packet.acked_seq, None)
        if entry is None:
            return  # spurious/duplicate ACK
        bits, _sent = entry
        self.inflight_bits -= bits
        self.acked_packets += 1
        self.highest_acked = max(self.highest_acked, packet.acked_seq)

        rtt = now - packet.sent_time_us
        if rtt > 0:
            self.srtt_us = (rtt if self.srtt_us == 0
                            else round(0.875 * self.srtt_us + 0.125 * rtt))
            if self.min_rtt_us is None or rtt < self.min_rtt_us:
                self.min_rtt_us = rtt

        self.delivered_bits += bits
        self.delivered_time_us = now
        interval = now - packet.delivered_time_at_send
        if interval > 0:
            rate = ((self.delivered_bits - packet.delivered_at_send)
                    * US_PER_S / interval)
        else:
            rate = 0.0

        self._detect_losses()
        ctx = AckContext(ack=packet, now_us=now, rtt_us=rtt,
                         delivery_rate_bps=rate, newly_acked_bits=bits,
                         inflight_bits=self.inflight_bits,
                         app_limited=packet.app_limited,
                         srtt_us=self.srtt_us)
        self.cc.on_ack(ctx)
        self._arm_rto()
        # ACK clocking: if sending was blocked (window-limited or idle),
        # resume immediately.  Never disturb an in-progress pacing gap.
        if self._running and not self._pacing_active:
            self._schedule_pacing(0)

    def _detect_losses(self) -> None:
        """Declare head-of-line packets lost once enough later ACKs."""
        lost_bits = self._scan_losses(self.highest_acked)
        if lost_bits:
            self.cc.on_loss(self.sim.now, lost_bits, self.inflight_bits)


class _PerPacketReceiver:
    """``receive`` as the ACKing receiver had it; a burst is its loop."""

    receive_block = Receiver.receive_block

    def feedback_for(self, packet: Packet) -> Optional[Any]:
        """Override point: feedback object to ride on this packet's ACK."""
        return None

    def receive(self, packet: Packet) -> None:
        if packet.is_ack or packet.flow_id != self.flow_id:
            return
        now = self.sim.now
        delay = now - packet.sent_time_us
        self.stats.record(now, packet.size_bits, delay)
        ack = packet.make_ack(now, feedback=self.feedback_for(packet))
        self.uplink.receive(ack)


class ReferenceAckingReceiver(_PerPacketReceiver, AckingReceiver):
    """An :class:`AckingReceiver` that ACKs packet by packet."""


class ReferencePbeClient(_PerPacketReceiver, PbeClient):
    """A :class:`PbeClient` that computes every packet's feedback on its
    own, through the per-packet body the burst body replaced."""

    def _rtprop_us(self, packet: Packet) -> int:
        srtt = packet.meta.get("srtt_us", 0)
        return srtt if srtt > 0 else self.default_rtprop_us

    def _prune_recent(self, horizon_us: int) -> None:
        recent = self._recent
        while recent and recent[0][0] < horizon_us:
            self._recent_bits -= recent.popleft()[1]

    def _receive_rate_bps(self, now_us: int, window_us: int) -> float:
        self._prune_recent(now_us - window_us)
        bits = self._recent_bits
        return bits * US_PER_S / window_us if window_us > 0 else 0.0

    def _npkt(self, ct_bits_per_subframe: float) -> int:
        """Consecutive-packet threshold Npkt (Eqn. 6), at least 3.

        ``Npkt = 6 · Ct / MSS`` with Ct in bits per subframe — the
        number of packets the current rate carries in six subframes.
        """
        return max(3, round(SWITCH_SUBFRAMES * ct_bits_per_subframe
                            / MSS_BITS))

    def feedback_for(self, packet: Packet) -> PbeFeedback:
        now = self.sim.now
        delay = now - packet.sent_time_us
        self._dprop.update(now, delay)
        self._recent.append((now, packet.size_bits))
        self._recent_bits += packet.size_bits

        rtprop_us = self._rtprop_us(packet)
        # Keep the receive-rate window bounded on *every* packet.  It
        # used to be pruned only on the Internet-bottleneck branch
        # below, so a flow that stayed wireless-bottlenecked grew the
        # deque by one entry per packet for the whole run.
        self._prune_recent(now - rtprop_us)
        rtprop_subframes = max(1, rtprop_us // 1_000)
        # The UE's subframe clock keeps ticking even when the decoder
        # is dark — pass it so the report carries a staleness signal.
        report = self.monitor.report(rtprop_subframes,
                                     now_subframe=now // US_PER_MS)
        self._last_report = report

        threshold = self.delay_threshold_us
        npkt = self._npkt(report.transport_capacity)
        if delay > threshold:
            self._over_threshold_run += 1
            self._under_threshold_run = 0
        else:
            self._under_threshold_run += 1
            self._over_threshold_run = 0

        if self.state == WIRELESS:
            if self._over_threshold_run >= npkt:
                self._switch(INTERNET, now)
        else:
            receive_rate = self._receive_rate_bps(now, rtprop_us)
            fair = report.transport_fair_share_bps
            if (self._under_threshold_run >= npkt
                    and receive_rate >= FAIR_SHARE_FRACTION * fair):
                self._switch(WIRELESS, now)

        # §4.1/§4.2.1: the sender offers at least its fair share of the
        # cell (so an under-allocated flow keeps pressure on the
        # scheduler and converges back to the equal split), and more
        # when idle capacity makes Cp exceed the fair share.  The base
        # station's per-user fairness arbitrates any overshoot.
        target = max(report.transport_capacity_bps,
                     report.transport_fair_share_bps)
        if report.is_stale:
            self.stale_reports += 1
        return PbeFeedback.from_rates(
            target_rate_bps=target,
            fair_rate_bps=report.transport_fair_share_bps,
            internet_bottleneck=(self.state == INTERNET),
            carrier_activated=report.carrier_activated,
            stale=report.is_stale)

    def _switch(self, state: str, now_us: int) -> None:
        self.time_in_state[self.state] += now_us - self._state_since
        self._state_since = now_us
        self.state = state
        self.state_changes.append((now_us, state))
        self._over_threshold_run = 0
        self._under_threshold_run = 0
