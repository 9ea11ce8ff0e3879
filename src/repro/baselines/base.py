"""Transport endpoint framework shared by every congestion controller.

:class:`Sender` is the machinery common to all schemes — packet
pacing, window enforcement, per-ACK delivery-rate samples (BBR-style),
RTT estimation, duplicate-ACK loss detection and retransmission
timeouts.  A scheme plugs in as a :class:`CongestionControl` strategy
object deciding the pacing rate and congestion window.

The receiver side (:class:`AckingReceiver`) acknowledges every data
packet; PBE-CC's mobile client subclasses it to attach capacity
feedback to each ACK.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..net.flow import FlowStats
from ..net.link import Receiver
from ..net.packet import Packet
from ..net.sim import Event, Simulator
from ..net.units import MSS_BITS, US_PER_S

#: Duplicate-ACK threshold for loss detection.
DUPACK_THRESHOLD = 3
#: Lower bound on the retransmission timeout, µs.
MIN_RTO_US = 200_000


@dataclass(slots=True)
class AckContext:
    """Everything a congestion controller learns from one ACK (one per
    ACK: slotted, and built positionally on the block path)."""

    ack: Packet
    now_us: int
    rtt_us: int
    #: BBR-style delivery-rate sample, bits/s (0 when not computable).
    delivery_rate_bps: float
    #: Bits newly acknowledged by this ACK.
    newly_acked_bits: int
    #: Bits still in flight after processing this ACK.
    inflight_bits: int
    #: Whether the rate sample was taken while application-limited.
    app_limited: bool
    #: The sender's smoothed RTT *after* folding in this ACK's sample.
    #: Schemes that want an srtt must read this instead of re-filtering
    #: ``rtt_us`` themselves, so the two estimates cannot drift.
    srtt_us: int = 0


class CongestionControl:
    """Strategy interface implemented by every scheme."""

    #: Human-readable scheme name (used by the harness).
    name = "base"

    def on_ack(self, ctx: AckContext) -> None:
        """Process one acknowledgement."""

    def on_ack_block(self, contexts: list[AckContext]) -> None:
        """Process one grant cycle's worth of acknowledgements.

        The transport engine hands each uplink burst to the
        controller as a block.  The default is the sequential
        :meth:`on_ack` loop — byte-identical to scalar delivery, with
        the method dispatch hoisted out of the loop — so every scheme
        works unmodified; schemes with genuinely vectorizable state may
        override.
        """
        on_ack = self.on_ack
        for ctx in contexts:
            on_ack(ctx)

    def on_send(self, packet: Packet) -> None:
        """Hook invoked for every transmitted packet (may tag metadata)."""

    def on_loss(self, now_us: int, lost_bits: int,
                inflight_bits: int) -> None:
        """React to packets declared lost (duplicate-ACK detection)."""

    def on_timeout(self, now_us: int) -> None:
        """React to a retransmission timeout (all inflight lost)."""

    def pacing_rate_bps(self, now_us: int) -> float:
        """Current send rate.  Return 0 to stop sending temporarily."""
        raise NotImplementedError

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        """Inflight cap in bits, or ``None`` for rate-only control."""
        return None

    def rate_valid_until_us(self, now_us: int) -> int:
        """Instant up to which the :meth:`pacing_rate_bps`/:meth:`cwnd_bits`
        answers given for ``now_us`` hold unless an ``on_ack``/``on_loss``/
        ``on_timeout`` callback intervenes (``on_send`` must not move
        them; asked once a second packet is due under those answers).
        The default re-asks for every packet."""
        return now_us


class Sender(Receiver):
    """A server-side endpoint pushing one flow through the network."""

    #: Pacing poll interval while the controller reports a zero rate.
    _IDLE_POLL_US = 1_000

    #: Checkpointing: wiring restored from the rebuilt experiment.  The
    #: congestion controller is *not* skipped — its state is restored
    #: in place through the generic codec.  ``_pace_event``/
    #: ``_rto_event`` are live heap references, encoded as sequence
    #: numbers by the checkpoint layer.
    SNAPSHOT_SKIP = ("sim", "egress")

    def __init__(self, sim: Simulator, flow_id: int, cc: CongestionControl,
                 egress: Receiver, mss_bits: int = MSS_BITS,
                 app_rate_bps: Optional[float] = None) -> None:
        """``app_rate_bps`` caps the send rate below what congestion
        control allows, modelling an application-limited source (e.g. a
        fixed-bitrate video).  Packets sent while the application cap
        binds are marked ``app_limited`` so rate estimators (BBR's
        BtlBw filter) ignore their delivery samples."""
        if app_rate_bps is not None and app_rate_bps <= 0:
            raise ValueError("app rate must be positive")
        self.sim = sim
        self.flow_id = flow_id
        self.cc = cc
        self.egress = egress
        self.mss_bits = mss_bits
        self.app_rate_bps = app_rate_bps

        self.next_seq = 0
        self.inflight_bits = 0
        self._outstanding: dict[int, tuple[int, int]] = {}  # seq: (bits, t)
        self._send_order: deque[int] = deque()
        self.highest_acked = -1

        self.delivered_bits = 0
        self.delivered_time_us = 0
        self.srtt_us = 0
        self.min_rtt_us: Optional[int] = None

        self.sent_packets = 0
        self.acked_packets = 0
        self.lost_packets = 0
        self.timeouts = 0

        self._running = False
        self._pace_event: Optional[Event] = None
        #: True while the pacing gap after a transmit is pending; False
        #: while blocked (window-limited / zero rate), so ACK clocking
        #: can resume sending immediately without breaking pacing.
        self._pacing_active = False
        self._rto_event: Optional[Event] = None
        #: Absolute time the retransmission timeout should fire.  The
        #: queued event is reused lazily: every ACK pushes the deadline
        #: forward, and a stale firing just re-arms for the remainder,
        #: instead of a cancel + reschedule per ACK (which used to be
        #: the simulator heap's single biggest churn source).
        self._rto_deadline_us = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sending (full-buffer source)."""
        if self._running:
            raise RuntimeError("sender already running")
        self._running = True
        self._schedule_pacing(0)

    def stop(self) -> None:
        """Stop sending; in-flight packets drain naturally."""
        self._running = False
        if self._pace_event is not None:
            self._pace_event.cancel()
            self._pace_event = None
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _schedule_pacing(self, delay_us: int) -> None:
        if not self._running:
            return
        if self._pace_event is not None:
            self._pace_event.cancel()
        self._pace_event = self.sim.schedule(delay_us, self._pace)

    def _pace(self) -> None:
        """Send a *train* of packets: after each one, move the clock to
        the next send instant in place while :meth:`Simulator.advance_to`
        allows it (no callback can run in between, so state that only
        ACK/RTO callbacks write is read once), else wake via the heap."""
        self._pace_event = None
        if not self._running:
            return
        sim, cc, mss = self.sim, self.cc, self.mss_bits
        flow_id, egress = self.flow_id, self.egress
        outstanding, send_order = self._outstanding, self._send_order
        delivered_bits = self.delivered_bits
        delivered_time_us = self.delivered_time_us
        now = sim.now
        rto_us = max(MIN_RTO_US, 4 * self.srtt_us)  # = _rto_us(), no call
        valid_until = -1  # nothing asked yet
        while True:
            if now > valid_until:
                rate = cc.pacing_rate_bps(now)
                app_limited = (self.app_rate_bps is not None
                               and self.app_rate_bps < rate)
                if app_limited:
                    rate = self.app_rate_bps
                if rate <= 0:
                    break
                cwnd = cc.cwnd_bits(now)
                gap_us = max(1, round(mss * US_PER_S / rate))
                asked_us, valid_until = now, None  # horizon: on first reuse
            if cwnd is not None and self.inflight_bits + mss > cwnd:
                break
            seq = self.next_seq
            packet = Packet(flow_id, seq, mss, False, now, -1, None,
                            delivered_bits, delivered_time_us or now,
                            app_limited)
            self.next_seq = seq + 1
            outstanding[seq] = (mss, now)
            send_order.append(seq)
            self.inflight_bits += mss
            self.sent_packets += 1
            cc.on_send(packet)
            self._rto_deadline_us = now + rto_us
            if self._rto_event is None:
                self._rto_event = sim.schedule(rto_us, self._on_rto)
            egress.receive(packet)
            now += gap_us
            if not sim.advance_to(now):
                self._pacing_active = True
                self._schedule_pacing(gap_us)
                return
            if valid_until is None:
                valid_until = cc.rate_valid_until_us(asked_us)
        # Zero rate or window-limited: poll; ACKs re-arm sending instantly.
        self._pacing_active = False
        self._schedule_pacing(self._IDLE_POLL_US)

    # ------------------------------------------------------------------
    # Receiving ACKs
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        self.receive_batch([packet])

    def receive_batch(self, packets: list[Packet]) -> None:
        """Process one grant cycle's ACK burst as a block.

        Equivalent to processing the ACKs one by one in flush order
        (``tests/reference_transport.py`` keeps that per-ACK body as the
        oracle), with the loop-invariant work hoisted: sender state
        lives in locals across the burst, the congestion controller sees
        the burst through one :meth:`CongestionControl.on_ack_block`
        call instead of N dispatches, and the RTO/pacing timers are
        touched once per block instead of once per ACK.  A data packet,
        another flow's ACK and a spurious or duplicate ACK are skipped
        where they stand, as the per-ACK body skips them.

        Timer equivalence: the RTO event is *created* in-loop at the
        first processed ACK, exactly where the per-ACK body creates it,
        so its heap sequence number is in the same relative position;
        subsequent per-ACK deadline writes are deferred to one
        :meth:`_arm_rto` at block end (a stale firing re-arms for the
        remainder, so only the final deadline is observable).  The
        pacing-resume check moves to block end because
        ``_pacing_active`` is only ever mutated by ``_pace``, whose whole
        train runs inside one event, never mid-block — the last ACK's
        reschedule is the only one that survives per ACK anyway.
        """
        flow_id = self.flow_id
        now = self.sim.now
        outstanding = self._outstanding
        send_order = self._send_order

        # Hoisted sender state (written back before any CC callback).
        srtt = self.srtt_us
        min_rtt = self.min_rtt_us
        delivered = self.delivered_bits
        highest = self.highest_acked
        acked_count = 0
        pending: list[AckContext] = []

        def flush_pending() -> None:
            # Publish hoisted state, then hand the contexts accumulated
            # so far to the controller — it must observe the same
            # sender state it would have between two per-ACK calls.
            self.srtt_us = srtt
            self.min_rtt_us = min_rtt
            self.delivered_bits = delivered
            self.delivered_time_us = now
            self.highest_acked = highest
            if pending:
                self.cc.on_ack_block(pending)
                pending.clear()

        for ack in packets:
            if not ack.is_ack or ack.flow_id != flow_id:
                continue
            acked = ack.acked_seq
            entry = outstanding.pop(acked, None)
            if entry is None:
                continue  # spurious/duplicate ACK
            bits, _sent = entry
            self.inflight_bits -= bits
            acked_count += 1
            if acked > highest:
                highest = acked

            rtt = now - ack.sent_time_us
            if rtt > 0:
                srtt = (rtt if srtt == 0
                        else round(0.875 * srtt + 0.125 * rtt))
                if min_rtt is None or rtt < min_rtt:
                    min_rtt = rtt

            delivered += bits
            interval = now - ack.delivered_time_at_send
            if interval > 0:
                rate = ((delivered - ack.delivered_at_send)
                        * US_PER_S / interval)
            else:
                rate = 0.0

            # Everything outstanding was sent at or after the head of
            # the send order: unless that has fallen DUPACK_THRESHOLD
            # behind, the scan could only retire acked heads, which
            # the scan that does find a loss retires just the same.
            if (send_order
                    and highest - send_order[0] >= DUPACK_THRESHOLD):
                lost_bits = self._scan_losses(highest)
                if lost_bits:
                    # cc.on_loss must see every prior ACK first, exactly
                    # as the per-ACK interleaving would deliver them.
                    flush_pending()
                    self.cc.on_loss(now, lost_bits, self.inflight_bits)
            pending.append(AckContext(
                ack, now, rtt, rate, bits, self.inflight_bits,
                ack.app_limited, srtt))
            if (self._rto_event is None and self._running
                    and outstanding):
                # The per-ACK body creates the timer during this ACK;
                # match its heap position (deadline refreshed at end).
                delay = (MIN_RTO_US if srtt == 0
                         else max(MIN_RTO_US, 4 * srtt))
                self._rto_deadline_us = now + delay
                self._rto_event = self.sim.schedule(delay, self._on_rto)

        if not acked_count and not pending:
            return
        flush_pending()
        self.acked_packets += acked_count
        self._arm_rto()
        if self._running and not self._pacing_active:
            self._schedule_pacing(0)

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

    # ------------------------------------------------------------------
    # Timeout handling
    # ------------------------------------------------------------------
    def _rto_us(self) -> int:
        return max(MIN_RTO_US, 4 * self.srtt_us)

    def _arm_rto(self) -> None:
        if not self._outstanding or not self._running:
            if self._rto_event is not None:
                self._rto_event.cancel()
                self._rto_event = None
            return
        self._rto_deadline_us = self.sim.now + self._rto_us()
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self._rto_us(),
                                                self._on_rto)

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
        if self._running:
            self._schedule_pacing(0)


class AckingReceiver(Receiver):
    """Client-side endpoint: log deliveries and ACK every packet."""

    SNAPSHOT_SKIP = ("sim", "uplink")

    def __init__(self, sim: Simulator, flow_id: int, uplink: Receiver)\
            -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.uplink = uplink
        self.stats = FlowStats(flow_id)

    def receive(self, packet: Packet) -> None:
        self.receive_block([packet])

    def receive_block(self, packets: list[Packet]) -> None:
        """Deliver one released burst (a subframe's packets for this UE):
        log each of this flow's data packets and hand their ACKs to the
        uplink as one burst.  Deferring the uplink hand-off past the
        later packets' bookkeeping is unobservable: ACK generation reads
        no uplink state and the uplink's flush alignment depends only on
        ``sim.now``, which is constant across the burst.
        """
        now = self.sim.now
        flow_id = self.flow_id
        record = self.stats.record
        acks: list[Packet] = []
        ack_append = acks.append
        for packet in packets:
            if packet.is_ack or packet.flow_id != flow_id:
                continue
            record(now, packet.size_bits, now - packet.sent_time_us)
            ack_append(packet.make_ack(now))
        if acks:
            self.uplink.receive_block(acks)
