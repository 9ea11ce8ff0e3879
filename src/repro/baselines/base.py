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
#: :meth:`CongestionControl.rate_valid_until_us` answer meaning "until
#: the next ``on_ack``/``on_loss``/``on_timeout`` callback": no instant
#: of the clock ends it.
UNTIL_CALLBACK = 2**63 - 1


@dataclass(slots=True)
class AckContext:
    """Everything a congestion controller learns from one ACK (one per
    ACK: slotted, and built slot by slot on the block path)."""

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
    #: Segment size the window and pacing arithmetic counts in.
    mss_bits = MSS_BITS

    def on_ack(self, ctx: AckContext) -> None:
        """Process one acknowledgement."""

    def on_ack_block(self, contexts: list[AckContext]) -> None:
        """Process one uplink flush's acknowledgements.

        The transport engine hands each uplink burst to the controller
        as a block; its contexts share one instant, ``now_us``.  The
        default is the sequential :meth:`on_ack` loop, so every scheme
        works unmodified.  A scheme whose burst work is genuinely
        cheaper than N single ACKs (BBR and PBE-CC: every filter insert
        of a burst carries one timestamp) makes this its one ACK body
        instead, and its :meth:`on_ack` the burst of one.
        """
        on_ack = self.on_ack
        for ctx in contexts:
            on_ack(ctx)

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
        ``on_timeout`` callback intervenes (asked together with every
        fresh pair of answers, which the sender keeps across wake-ups
        until this instant or the next callback).  :data:`UNTIL_CALLBACK`
        says no clock instant ends them — only a scheme whose two
        queries read nothing but state its callbacks write may return
        it; a sender blocked under such answers queues no wake-up.  The
        default re-asks for every packet."""
        return now_us


class Sender(Receiver):
    """A server-side endpoint pushing one flow through the network."""

    #: Pacing poll interval while blocked (zero rate or full window)
    #: under answers with a finite validity horizon.
    _IDLE_POLL_US = 1_000
    #: Size of every data packet sent.
    mss_bits = MSS_BITS

    #: Checkpointing: wiring restored from the rebuilt experiment.  The
    #: congestion controller is *not* skipped — its state is restored
    #: in place through the generic codec.  ``_pace_event``/
    #: ``_rto_event`` are live heap references, encoded as sequence
    #: numbers by the checkpoint layer.  The carried answers are derived
    #: state, dropped on restore: re-asked inside their horizon, the
    #: controller gives the same ones.
    SNAPSHOT_SKIP = ("sim", "egress", "_held_rate", "_held_cwnd",
                     "_held_until")

    def __init__(self, sim: Simulator, flow_id: int, cc: CongestionControl,
                 egress: Receiver,
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
        self.app_rate_bps = app_rate_bps

        self.next_seq = 0
        #: ``mss_bits * len(_outstanding)``, cached: read per packet.
        self.inflight_bits = 0
        #: Seqs sent and neither acked nor declared lost.
        self._outstanding: set[int] = set()
        #: The lowest outstanding seq (``next_seq`` when none is);
        #: the loss scan starts here.
        self._scan_from = 0
        self.highest_acked = -1

        self.delivered_bits = 0
        self.delivered_time_us = 0
        self.srtt_us = 0
        self.min_rtt_us: Optional[int] = None

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
        self._forget_answers()

    def _forget_answers(self) -> None:
        """Drop the controller's carried answers (``pacing_rate_bps``,
        ``cwnd_bits``, ``rate_valid_until_us``): the next wake-up asks
        afresh.  Called after every ACK/loss/timeout callback the sender
        delivers, on :meth:`stop` and on restore."""
        self._held_rate = 0.0
        self._held_cwnd: Optional[float] = None
        self._held_until = -1

    _after_restore = _forget_answers

    #: Read-only: ``next_seq`` counts the packets sent, and
    #: ``delivered_bits`` grows by ``mss_bits`` per packet acked.
    sent_packets = property(lambda self: self.next_seq)
    acked_packets = property(lambda self: self.delivered_bits // self.mss_bits)

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
        self._forget_answers()
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
        ACK/RTO callbacks write is read once), else wake via the heap.

        The controller's answers are carried across wake-ups until their
        horizon passes or a callback drops them; the application cap and
        the gap are re-derived at every wake-up (``app_rate_bps`` is set
        from outside).  Blocked — zero rate or full window — the sender
        polls every :attr:`_IDLE_POLL_US` under a finite horizon and
        queues nothing under :data:`UNTIL_CALLBACK`: only an ACK, a loss
        or a timeout can change those answers, and each one re-arms
        pacing."""
        self._pace_event = None
        if not self._running:
            return
        sim, cc, mss = self.sim, self.cc, self.mss_bits
        flow_id, egress = self.flow_id, self.egress
        outstanding = self._outstanding
        delivered_bits = self.delivered_bits
        delivered_time_us = self.delivered_time_us
        now = sim.now
        new = object.__new__
        srtt_us = self.srtt_us
        rto_us = max(MIN_RTO_US, 4 * srtt_us)  # = _rto_us(), no call
        rate, cwnd = self._held_rate, self._held_cwnd
        valid_until = self._held_until
        while True:  # one pass per set of answers
            if now > valid_until:
                rate = cc.pacing_rate_bps(now)
                cwnd = cc.cwnd_bits(now) if rate > 0 else None
                valid_until = cc.rate_valid_until_us(now)
                self._held_rate, self._held_cwnd = rate, cwnd
                self._held_until = valid_until
            app_rate = self.app_rate_bps
            app_limited = app_rate is not None and app_rate < rate
            pace_rate = app_rate if app_limited else rate
            if pace_rate <= 0:
                break
            gap_us = max(1, round(mss * US_PER_S / pace_rate))
            while cwnd is None or not self.inflight_bits + mss > cwnd:
                seq = self.next_seq
                # ``Packet(...)`` without its ``__init__`` frame: one
                # store per slot (``tests/test_packet.py`` holds this
                # build to the constructor's over ``__slots__``).
                packet = new(Packet)
                packet.flow_id = flow_id
                packet.seq = seq
                packet.size_bits = mss
                packet.is_ack = False
                packet.sent_time_us = now
                packet.feedback = None
                packet.delivered_at_send = delivered_bits
                packet.delivered_time_at_send = delivered_time_us or now
                packet.app_limited = app_limited
                packet.srtt_us = srtt_us
                self.next_seq = seq + 1
                outstanding.add(seq)
                self.inflight_bits += mss
                self._rto_deadline_us = now + rto_us
                if self._rto_event is None:
                    self._rto_event = sim.schedule(rto_us, self._on_rto)
                egress.receive(packet)
                now += gap_us
                if not sim.advance_to(now):
                    self._pacing_active = True
                    self._schedule_pacing(gap_us)
                    return
                if now > valid_until:
                    break  # answers expired: ask again
            else:
                break  # window-limited
        # Blocked: ACKs, losses and timeouts re-arm sending instantly.
        self._pacing_active = False
        if valid_until != UNTIL_CALLBACK:
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
        reschedule is the only one that survives per ACK anyway.  For
        the same reason the controller's carried answers are dropped
        once, at block end, if any callback was delivered.
        """
        flow_id = self.flow_id
        now = self.sim.now
        outstanding = self._outstanding
        mss = self.mss_bits
        end = self.next_seq
        new = object.__new__

        # Hoisted sender state (written back before any CC callback).
        srtt = self.srtt_us
        min_rtt = self.min_rtt_us
        delivered = self.delivered_bits
        highest = self.highest_acked
        scan = self._scan_from
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
            acked = ack.seq
            if acked not in outstanding:
                continue  # spurious/duplicate ACK
            outstanding.remove(acked)
            self.inflight_bits -= mss
            if acked > highest:
                highest = acked
            if acked == scan:
                # The cursor stays on the lowest outstanding seq.
                scan += 1
                while scan < end and scan not in outstanding:
                    scan += 1

            rtt = now - ack.sent_time_us
            if rtt > 0:
                srtt = (rtt if srtt == 0
                        else round(0.875 * srtt + 0.125 * rtt))
                if min_rtt is None or rtt < min_rtt:
                    min_rtt = rtt

            delivered += mss
            interval = now - ack.delivered_time_at_send
            if interval > 0:
                rate = ((delivered - ack.delivered_at_send)
                        * US_PER_S / interval)
            else:
                rate = 0.0

            # The cursor is the lowest outstanding seq: it lagging
            # DUPACK_THRESHOLD behind is exactly a loss to declare.
            if highest - scan >= DUPACK_THRESHOLD:
                self._scan_from = scan
                lost_bits = self._scan_losses(highest)
                scan = self._scan_from
                # cc.on_loss must see every prior ACK first, exactly
                # as the per-ACK interleaving would deliver them.
                flush_pending()
                self.cc.on_loss(now, lost_bits, self.inflight_bits)
            # ``AckContext(...)`` without its generated ``__init__``
            # frame: one store per slot (``tests/test_packet.py`` holds
            # this build to the keyword-built context).
            ctx = new(AckContext)
            ctx.ack = ack
            ctx.now_us = now
            ctx.rtt_us = rtt
            ctx.delivery_rate_bps = rate
            ctx.newly_acked_bits = mss
            ctx.inflight_bits = self.inflight_bits
            ctx.app_limited = ack.app_limited
            ctx.srtt_us = srtt
            pending.append(ctx)
            if (self._rto_event is None and self._running
                    and outstanding):
                # The per-ACK body creates the timer during this ACK;
                # match its heap position (deadline refreshed at end).
                delay = (MIN_RTO_US if srtt == 0
                         else max(MIN_RTO_US, 4 * srtt))
                self._rto_deadline_us = now + delay
                self._rto_event = self.sim.schedule(delay, self._on_rto)

        if not pending:
            return
        self._scan_from = scan
        flush_pending()
        self._forget_answers()
        self._arm_rto()
        if self._running and not self._pacing_active:
            self._schedule_pacing(0)

    def _scan_losses(self, highest_acked: int) -> int:
        """Declare head-of-line packets lost; move the cursor past them
        and the acked seqs among them, onto the lowest seq still
        outstanding (or ``next_seq``); return the bits lost."""
        outstanding = self._outstanding
        seq, end, lost = self._scan_from, self.next_seq, 0
        while seq < end:
            if seq in outstanding:
                if highest_acked - seq < DUPACK_THRESHOLD:
                    break
                outstanding.remove(seq)
                lost += 1
            seq += 1
        self._scan_from = seq
        self.lost_packets += lost
        self.inflight_bits -= lost * self.mss_bits
        return lost * self.mss_bits

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
        self._scan_from = self.next_seq
        self.inflight_bits = 0
        self.cc.on_timeout(self.sim.now)
        self._forget_answers()
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
            ack_append(packet.make_ack())
        if acks:
            self.uplink.receive_block(acks)
