"""The per-packet transport endpoints, kept verbatim as oracles.

These are ``Sender.receive`` / ``_detect_losses`` / ``_scan_losses`` /
``_on_rto`` with the ``{seq: (bits, t)}`` map and send-order deque the
sender kept then, ``AckingReceiver.receive`` / ``feedback_for`` and ``PbeClient``'s
``feedback_for`` with its helpers as they stood before every endpoint
took a burst: one ACK folded at a time, one feedback computed per
packet, one ``uplink.receive`` per ACK.  Each class's burst entry points
are the per-packet loop of :class:`repro.net.link.Receiver`, so wired
into an experiment they deliver and acknowledge packet by packet.
Nothing under ``src/`` imports this module; ``tests/reference_engine.py``
wires these classes into the reference experiment (the sender through
``tests/reference_pacer.py``'s :class:`ReferenceSender`, which paces per
packet on top of :class:`ReferenceAckSender` — the engine's pacer relies
on ``receive_batch`` dropping the answers it carries, which this per-ACK
body does not), and ``test_transport_batch``, ``test_cc_block``,
``test_pacing_trains``, ``test_sender_stateful`` and
``test_air_delivery`` run them beside the burst bodies.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.baselines.base import (DUPACK_THRESHOLD, AckContext,
                                  AckingReceiver, Sender)
from repro.core.client import (FAIR_SHARE_FRACTION, INTERNET,
                               SWITCH_SUBFRAMES, WIRELESS, PbeClient)
from repro.core.feedback import PbeFeedback
from repro.core.sender import DEFAULT_RTPROP_US
from repro.net.link import Receiver
from repro.net.packet import Packet
from repro.net.units import MSS_BITS, US_PER_MS, US_PER_S


class ReferenceAckSender(Sender):
    """A :class:`Sender` that folds every ACK on its own.

    It keeps the per-packet bookkeeping the engine's sender dropped —
    ``_outstanding`` as ``{seq: (bits, sent_us)}``, the ``_send_order``
    deque and its own ``sent_packets``/``acked_packets`` counters — and
    its own loss scan and timeout, so a differential against it checks
    the engine's set, scan cursor and derived counters instead of
    running the engine's code twice.  Its packets are sent by
    ``tests/reference_pacer.py``'s ``_transmit``."""

    receive_batch = Receiver.receive_batch
    # Plain class attributes in place of the engine's read-only
    # properties, so the counters below are instance fields here.
    sent_packets = acked_packets = 0

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._outstanding: dict[int, tuple[int, int]] = {}  # seq: (bits, t)
        self._send_order: deque[int] = deque()

    def receive(self, packet: Packet) -> None:
        if not packet.is_ack or packet.flow_id != self.flow_id:
            return
        now = self.sim.now
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            return  # spurious/duplicate ACK
        bits, _sent = entry
        self.inflight_bits -= bits
        self.acked_packets += 1
        self.highest_acked = max(self.highest_acked, packet.seq)

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

    def _scan_losses(self, highest_acked: int) -> int:
        """Pop head-of-line packets now considered lost; return bits."""
        lost_bits = 0
        outstanding = self._outstanding
        send_order = self._send_order
        while send_order:
            seq = send_order[0]
            if seq not in outstanding:
                send_order.popleft()
                continue
            if highest_acked - seq >= DUPACK_THRESHOLD:
                bits, _ = outstanding.pop(seq)
                send_order.popleft()
                self.inflight_bits -= bits
                self.lost_packets += 1
                lost_bits += bits
            else:
                break
        return lost_bits

    def _on_rto(self) -> None:
        self._rto_event = None
        if not self._outstanding:
            return
        remaining = self._rto_deadline_us - self.sim.now
        if remaining > 0:
            # The deadline moved forward since this event was queued
            # (ACKs arrived); sleep out the remainder.
            self._rto_event = self.sim.schedule(remaining, self._on_rto)
            return
        self.timeouts += 1
        self.lost_packets += len(self._outstanding)
        self._outstanding.clear()
        self._send_order.clear()
        self.inflight_bits = 0
        self.cc.on_timeout(self.sim.now)
        self._forget_answers()
        if self._running:
            self._schedule_pacing(0)


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
        ack = packet.make_ack(feedback=self.feedback_for(packet))
        self.uplink.receive(ack)


class ReferenceAckingReceiver(_PerPacketReceiver, AckingReceiver):
    """An :class:`AckingReceiver` that ACKs packet by packet."""


class ReferencePbeClient(_PerPacketReceiver, PbeClient):
    """A :class:`PbeClient` that computes every packet's feedback on its
    own, through the per-packet body the burst body replaced, and
    accumulates the time spent in each state at every flip (the engine's
    client folds ``state_changes`` instead)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Time spent in each state, µs.
        self.time_in_state = {WIRELESS: 0, INTERNET: 0}
        self._state_since = 0

    def state_fractions(self, now_us: int) -> dict[str, float]:
        totals = dict(self.time_in_state)
        totals[self.state] += now_us - self._state_since
        span = sum(totals.values())
        if span == 0:
            return {WIRELESS: 1.0, INTERNET: 0.0}
        return {k: v / span for k, v in totals.items()}

    def _rtprop_us(self, packet: Packet) -> int:
        srtt = packet.srtt_us
        return srtt if srtt > 0 else DEFAULT_RTPROP_US

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

        threshold = self.dprop_us + self.delay_margin_us
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
