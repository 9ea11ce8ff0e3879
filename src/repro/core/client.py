"""The PBE-CC mobile client (§4.2.2, §5).

Runs on the phone: for every received data packet it estimates the
one-way propagation delay ``Dprop`` (10-second min filter, as BBR does
for RTprop), classifies the connection's bottleneck state, and attaches
a capacity report to the outgoing ACK:

* **Wireless-bottleneck state** — the feedback carries the translated
  capacity estimate ``Ct`` (Eqns. 3+5) for the sender to pace at.
* **Internet-bottleneck state** — entered after ``Npkt`` consecutive
  packets exceed the delay threshold ``Dth = Dprop + 3·8 + 3`` ms
  (three chained HARQ retransmissions plus measured jitter); the
  feedback's state bit tells the sender to fall back to its
  cellular-tailored BBR, and carries the fair share ``Cf`` as the
  probing cap (Eqn. 7).  The client returns to the wireless state once
  ``Npkt`` consecutive packets are back under the threshold *and* the
  receive rate has reached the fair share (§4.2.3, "switching back").

Decisions use delay *differences* against ``Dprop``, so no clock
synchronization between server and phone is required (§4.2.2).
"""

from __future__ import annotations

from collections import deque

from ..baselines.base import AckingReceiver
from ..baselines.windowed import WindowedMin
from ..monitor.pbe import PbeMonitor
from ..net.link import Receiver
from ..net.packet import ACK_BITS, Packet
from ..net.sim import Simulator
from ..net.units import MSS_BITS, SUBFRAME_US, US_PER_MS, US_PER_S
from ..phy.harq import MAX_RETRANSMISSIONS, RETX_DELAY_SUBFRAMES
from .feedback import PbeFeedback, encode_interval_us
from .sender import DEFAULT_RTPROP_US

#: Dprop min-filter window (§4.2.2: minimum over a 10-second window).
DPROP_WINDOW_US = 10 * US_PER_S
#: Delay-threshold margin: three chained 8 ms retransmissions + 3 ms
#: jitter (94.1% of measured jitter is ≤ 3 ms).
DELAY_MARGIN_US = (MAX_RETRANSMISSIONS * RETX_DELAY_SUBFRAMES * SUBFRAME_US
                   + 3 * US_PER_MS)
#: Npkt = SWITCH_SUBFRAMES · Ct / MSS (Eqn. 6).
SWITCH_SUBFRAMES = 6
#: Fraction of the fair share the receive rate must reach before
#: switching back to the wireless-bottleneck state.
FAIR_SHARE_FRACTION = 0.9

WIRELESS, INTERNET = "wireless", "internet"
#: Builds each report's :class:`PbeFeedback` from its five fields in
#: one C call (``_make`` semantics, like ``basestation._new_dci``).
_new_feedback = tuple.__new__


class PbeClient(AckingReceiver):
    """Mobile-side PBE-CC endpoint: delay tracking + capacity feedback."""

    #: Checkpointing: the monitor is snapshotted once per flow by the
    #: checkpoint layer (sim/uplink skips inherited from the base).
    SNAPSHOT_SKIP = ("monitor",)

    def __init__(self, sim: Simulator, flow_id: int, uplink: Receiver,
                 monitor: PbeMonitor,
                 delay_margin_us: int = DELAY_MARGIN_US) -> None:
        """``delay_margin_us`` is the §4.2.2 threshold margin above
        Dprop (default 3·8+3 ms); an ablation knob — 0 reproduces the
        "theoretical threshold" the paper shows works poorly."""
        super().__init__(sim, flow_id, uplink)
        if delay_margin_us < 0:
            raise ValueError("delay margin must be non-negative")
        self.monitor = monitor
        self.delay_margin_us = delay_margin_us
        self.state = WIRELESS
        self._dprop = WindowedMin(DPROP_WINDOW_US)
        self._over_threshold_run = 0
        self._under_threshold_run = 0
        #: Receive-rate window: (arrival_us, bits).
        self._recent: deque[tuple[int, int]] = deque()
        #: Running Σ size_bits over ``_recent`` (ints, so the rolling
        #: sum is exactly the re-summed window).
        self._recent_bits = 0
        #: ``(instant, state)`` per flip; the state at 0 is WIRELESS.
        self.state_changes: list[tuple[int, str]] = []
        #: ACKs that carried a stale-flagged report (decode gaps).
        self.stale_reports = 0

    # ------------------------------------------------------------------
    # Delay bookkeeping
    # ------------------------------------------------------------------
    @property
    def dprop_us(self) -> int:
        value = self._dprop.get()
        return int(value) if value is not None else 0

    # ------------------------------------------------------------------
    # Per-burst processing
    # ------------------------------------------------------------------
    def receive_block(self, packets: list[Packet]) -> None:
        """One subframe's deliveries → one run of feedback ACKs.

        Per packet (``tests/reference_transport.py`` keeps the per-packet
        body this replaced as the oracle): fold the one-way delay into
        Dprop, add the packet to the receive-rate window (pruned to the
        sender's stamped ``srtt_us``, or ``DEFAULT_RTPROP_US`` while that
        is 0), read the monitor's report over that
        window, run the §4.2.2 state machine against ``Dth`` and
        ``Npkt``, and stamp the ACK with a :class:`PbeFeedback`.
        Everything that is constant across a burst — ``now`` and
        whatever only the report or the stamped srtt can move — is done
        once instead of per packet:

        * the Dprop filter runs as a running minimum in a local and
          takes ONE insert, of the burst minimum, at the end (the tail
          entries a per-packet insert would leave behind it share its
          timestamp, so they expire with it and can never be the head);
        * the receive-rate window gets one ``(now, burst bits)`` entry
          (entries of one instant are pruned together) while
          ``_recent_bits`` still runs per packet, and is pruned only
          when the stamped srtt — hence the horizon — changes;
        * the monitor report is re-read only when its inputs can have
          changed — a new averaging window or a consumed
          carrier-activation edge; the burst's first read leaves no
          pending activation or decode hints behind, and nothing feeds
          the monitor with no callback in between;
        * ACKs share one immutable :class:`PbeFeedback` until the
          report is re-read or the state flips (replace, never mutate).

        Every per-packet *decision* stays per packet: the threshold
        test against the running Dprop, the over/under runs against
        ``Npkt``, the state machine, ``stale_reports``.  To watch or
        rewrite the feedback, wrap ``uplink`` (it receives the burst).
        """
        now = self.sim.now
        flow_id = self.flow_id
        monitor = self.monitor
        margin = self.delay_margin_us
        recent = self._recent
        recent_bits = self._recent_bits
        dprop = self._dprop
        dprop.expire(now)
        dprop_min = dprop.get()
        if dprop_min is None:
            dprop_min = threshold = float("inf")
        else:
            threshold = dprop_min + margin
        state = self.state
        over_run = self._over_threshold_run
        under_run = self._under_threshold_run
        stale_reports = 0
        now_subframe = now // US_PER_MS
        report = feedback = last_srtt = None
        report_window = -1
        activated = False
        sizes: list[int] = []
        delays: list[int] = []
        acks: list[Packet] = []
        ack_append = acks.append
        new = object.__new__

        for packet in packets:
            if packet.is_ack or packet.flow_id != flow_id:
                continue
            size_bits = packet.size_bits
            delay = now - packet.sent_time_us
            sizes.append(size_bits)
            delays.append(delay)
            if delay < dprop_min:
                dprop_min = delay
                threshold = delay + margin
            recent_bits += size_bits

            srtt = packet.srtt_us
            if srtt != last_srtt:
                last_srtt = srtt
                rtprop_us = srtt if srtt > 0 else DEFAULT_RTPROP_US
                prune_horizon = now - rtprop_us
                while recent and recent[0][0] < prune_horizon:
                    recent_bits -= recent.popleft()[1]
                rtprop_subframes = max(1, rtprop_us // 1_000)
            if rtprop_subframes != report_window or activated:
                report = monitor.report(rtprop_subframes,
                                        now_subframe=now_subframe)
                report_window = rtprop_subframes
                # Npkt (Eqn. 6), at least 3: the packets the current
                # rate Ct (bits per subframe) carries in six subframes.
                npkt = max(3, round(SWITCH_SUBFRAMES
                                    * report.transport_capacity
                                    / MSS_BITS))
                fair_bps = report.transport_fair_share_bps
                activated = report.carrier_activated
                is_stale = report.is_stale
                # §4.1/§4.2.1: offer at least the fair share, more when
                # idle capacity makes Cp exceed it (``from_rates``, with
                # the encodes hoisted per report).
                target_interval = encode_interval_us(
                    max(report.transport_capacity_bps, fair_bps))
                fair_interval = encode_interval_us(fair_bps)
                feedback = None

            if delay > threshold:
                over_run += 1
                under_run = 0
            else:
                under_run += 1
                over_run = 0

            if state == WIRELESS:
                flip = over_run >= npkt
            else:
                flip = (under_run >= npkt
                        and recent_bits * US_PER_S / rtprop_us
                        >= FAIR_SHARE_FRACTION * fair_bps)
            if flip:
                state = INTERNET if state == WIRELESS else WIRELESS
                self.state_changes.append((now, state))
                over_run = under_run = 0
                feedback = None

            if is_stale:
                stale_reports += 1
            if feedback is None:
                feedback = _new_feedback(PbeFeedback, (
                    target_interval, fair_interval, state == INTERNET,
                    activated, is_stale))
            # ``packet.make_ack(feedback)`` without its frame: one store
            # per slot (``tests/test_packet.py`` holds this build to the
            # constructor-built ACK over ``__slots__``).
            ack = new(Packet)
            ack.flow_id = flow_id
            ack.seq = packet.seq
            ack.size_bits = ACK_BITS
            ack.is_ack = True
            ack.sent_time_us = packet.sent_time_us
            ack.feedback = feedback
            ack.delivered_at_send = packet.delivered_at_send
            ack.delivered_time_at_send = packet.delivered_time_at_send
            ack.app_limited = packet.app_limited
            ack.srtt_us = 0
            ack_append(ack)

        if not acks:
            return
        self.stats.record_block(now, sizes, delays)
        dprop.update(now, min(delays))
        recent.append((now, sum(sizes)))
        self._recent_bits = recent_bits
        self.state = state
        self._over_threshold_run = over_run
        self._under_threshold_run = under_run
        self.stale_reports += stale_reports
        self.uplink.receive_block(acks)

    # ------------------------------------------------------------------
    def state_fractions(self, now_us: int) -> dict[str, float]:
        """Fraction of connection time spent in each bottleneck state
        (for §6.3.1's 18%/4% statistic)."""
        totals = {WIRELESS: 0, INTERNET: 0}
        prev_t, prev_state = 0, WIRELESS
        for t, state in self.state_changes:
            totals[prev_state] += t - prev_t
            prev_t, prev_state = t, state
        totals[prev_state] += now_us - prev_t
        span = sum(totals.values())
        if span == 0:
            return {WIRELESS: 1.0, INTERNET: 0.0}
        return {k: v / span for k, v in totals.items()}
