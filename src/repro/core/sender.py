"""The PBE-CC sender (§4.1-§4.2.3).

A rate-based controller driven by the mobile client's explicit capacity
feedback:

* **Startup (§4.1)** — linear rate increase from zero to the fair-share
  rate ``Cf`` over three RTTs, so the cell tower and competing users
  have time to react.  The ramp restarts whenever the network activates
  another component carrier.
* **Wireless-bottleneck state (§4.2.1)** — pace exactly at the reported
  transport capacity ``Ct``, with inflight capped at the BDP
  (``Ct × RTprop``) so delayed feedback cannot flood the network.
* **Internet-bottleneck state (§4.2.3)** — after a one-RTprop drain
  phase at ``0.5·BtlBw``, run a cellular-tailored BBR whose probing
  rate is capped at the wireless fair share:
  ``Cprobe = min(1.25·BtlBw, Cf)`` (Eqn. 7).
* **Feedback-loss fallback** — a watchdog tracks the freshness of the
  client's capacity reports.  When reports go stale (decoder outage,
  lost/corrupted ACK feedback, a client that stops reporting — §7),
  the sender falls back to the same embedded delay-based BBR, which
  every ACK has kept warm; when fresh reports resume it re-syncs by
  ramping from the fallback operating point back to the reported fair
  share, reusing the §4.1 startup machinery.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.base import AckContext, CongestionControl
from ..baselines.bbr import PROBE_BW, Bbr
from ..net.units import SUBFRAME_US, US_PER_S
from ..phy.harq import RETX_DELAY_SUBFRAMES
from .feedback import PbeFeedback

STARTUP, WIRELESS, DRAIN, INTERNET, FALLBACK = (
    "startup", "wireless", "drain", "internet", "fallback")

#: Startup ramp length, in round-trip times (§4.1: three RTTs).
RAMP_RTTS = 3
#: Wireless-state pacing gain.  The paper's binding control is the
#: congestion window ("PBE-CC limits the amount of inflight data to the
#: bandwidth-delay product ... with a congestion window", §4) — pacing
#: runs slightly above the capacity estimate so the BDP window stays
#: full and dips in the estimate cannot starve the wireless scheduler.
WIRELESS_PACING_GAIN = 1.25
#: Drain-phase pacing gain on entering the Internet-bottleneck state.
DRAIN_GAIN = 0.5
#: cwnd headroom above the BDP, packets.
CWND_SLACK_PACKETS = 4
#: Two HARQ retransmission cycles (16 ms), µs: the BDP window must absorb
#: the receiver-side reordering stalls of §3/Figure 3, otherwise every
#: 8 ms stall blocks the window and the paced sender can never win the
#: time back.
RETX_MARGIN_US = 2 * RETX_DELAY_SUBFRAMES * SUBFRAME_US
#: Pacing rate before the first capacity report, bits/s.
INITIAL_RATE_BPS = 1.2e6
#: RTprop assumed before any is measured, µs (the sender's until its
#: first RTT sample; the client's for packets that carry no srtt).
DEFAULT_RTPROP_US = 40_000
#: The feedback watchdog trips after ``max(FEEDBACK_TIMEOUT_RTPROPS ·
#: RTprop, MIN_FEEDBACK_TIMEOUT_US)`` without a fresh capacity report;
#: the floor keeps ordinary ACK batching from tripping it.
FEEDBACK_TIMEOUT_RTPROPS = 4
MIN_FEEDBACK_TIMEOUT_US = 100_000


class PbeSender(CongestionControl):
    """Server-side PBE-CC congestion control."""

    name = "pbe"

    def __init__(self, retx_margin_us: int = RETX_MARGIN_US) -> None:
        """``retx_margin_us=0`` sizes the cwnd at the bare BDP (an
        ablation; the default is the paper's design)."""
        if retx_margin_us < 0:
            raise ValueError("retx margin must be non-negative")
        self.initial_rate_bps = INITIAL_RATE_BPS
        self.retx_margin_us = retx_margin_us
        self.state = STARTUP

        #: Embedded cellular-tailored BBR: fed every ACK so its BtlBw /
        #: RTprop filters are warm the instant the bottleneck moves into
        #: the Internet.  Its probing rate is capped at Cf (Eqn. 7).
        self.bbr = Bbr(initial_rate_bps=self.initial_rate_bps,
                       probe_rate_cap=self._fair_share_cap)

        self.target_rate_bps = 0.0
        self.fair_rate_bps = 0.0
        self._srtt_us = 0
        self._ramp_start_us: Optional[int] = None
        self._ramp_base_bps = 0.0
        self._drain_until_us = 0
        self.state_changes: list[tuple[int, str]] = []

        #: Feedback watchdog: timestamp of the last fresh (non-stale)
        #: capacity report; falls back to the first ACK of any kind so
        #: a client that never reports (§7) still triggers a fallback.
        self._last_fresh_us: Optional[int] = None
        self._first_ack_us: Optional[int] = None
        self.fallback_entries = 0
        self.stale_feedback_acks = 0

    # ------------------------------------------------------------------
    def _fair_share_cap(self) -> Optional[float]:
        return self.fair_rate_bps if self.fair_rate_bps > 0 else None

    @property
    def rtprop_us(self) -> int:
        rtprop = self.bbr.rtprop_us
        if rtprop:
            return rtprop
        return self._srtt_us or DEFAULT_RTPROP_US

    def _switch(self, state: str, now_us: int) -> None:
        self.state = state
        self.state_changes.append((now_us, state))

    def state_durations_us(self, now_us: int) -> dict[str, int]:
        """Cumulative time spent in each state up to ``now_us``."""
        durations = dict.fromkeys(
            (STARTUP, WIRELESS, DRAIN, INTERNET, FALLBACK), 0)
        prev_t, prev_state = 0, STARTUP
        for t, state in self.state_changes:
            durations[prev_state] += max(0, t - prev_t)
            prev_t, prev_state = t, state
        durations[prev_state] += max(0, now_us - prev_t)
        return durations

    # ------------------------------------------------------------------
    # Feedback watchdog (graceful degradation)
    # ------------------------------------------------------------------
    def _watchdog_timeout_us(self) -> int:
        return max(FEEDBACK_TIMEOUT_RTPROPS * self.rtprop_us,
                   MIN_FEEDBACK_TIMEOUT_US)

    def _check_watchdog(self, now_us: int) -> None:
        """Fall back to the delay-based estimator on stale feedback.

        Armed by the first ACK of any kind, refreshed by every fresh
        (non-stale) capacity report.  The embedded BBR has been fed
        every ACK, so its BtlBw/RTprop filters are warm the instant we
        hand it control.
        """
        reference = (self._last_fresh_us if self._last_fresh_us is not None
                     else self._first_ack_us)
        if self.state == FALLBACK or reference is None:
            return
        if now_us - reference <= self._watchdog_timeout_us():
            return
        self.fallback_entries += 1
        self.bbr.filled_pipe = True
        if self.bbr.state != PROBE_BW:
            self.bbr.enter_probe_bw(now_us)
        self._switch(FALLBACK, now_us)

    def _resync_after_fallback(self, now_us: int) -> None:
        """Fresh reports resumed: ramp back onto explicit feedback.

        Reuses the §4.1 startup machinery — ramp from the fallback
        operating point (BBR's bandwidth estimate) to the reported
        fair share over three RTTs, so the re-entry cannot shock the
        cell any more than a carrier activation does.
        """
        self._ramp_base_bps = max(self.initial_rate_bps,
                                  self.bbr.btlbw_bps)
        self._ramp_start_us = now_us
        self._switch(STARTUP, now_us)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        self.on_ack_block([ctx])

    def on_ack_block(self, contexts: list[AckContext]) -> None:
        """The §4.1 update loop over one uplink flush's ACKs.

        The burst's contexts share ``now_us`` (a mismatch raises
        :class:`ValueError`).  PBE's own control is a sequential state
        machine (every ACK can flip the bottleneck state that reshapes
        how the next one is interpreted), so that machine runs per ACK —
        but the embedded BBR's feeding is *deferred* into runs handed to
        :meth:`Bbr.on_ack_block`, where the filter work collapses to
        per-burst aggregates.  A run is flushed before any path that
        reads or mutates BBR state (the watchdog's RTprop read, the
        fallback resync's BtlBw read, the §4.2.3 Internet-bottleneck
        branch), so BBR sees every ACK before anything reads it, as if
        fed one ACK at a time.  The steady wireless-state path — fresh
        feedback, no bottleneck shift — touches no BBR state, so a busy
        flow's whole burst becomes a single deferred run.  The per-ACK
        body this replaced is kept as the oracle ``tests/reference_cc.py``.
        """
        now = contexts[0].now_us
        if contexts[-1].now_us != now:
            raise ValueError("an ACK burst must share one instant, got "
                             f"{now} and {contexts[-1].now_us} µs")
        if self._first_ack_us is None:
            self._first_ack_us = now
        bbr = self.bbr
        bbr_block = bbr.on_ack_block
        run: list[AckContext] = []
        run_append = run.append
        decoded = None

        for ctx in contexts:
            # The transport already runs the standard EWMA srtt filter
            # over every ACK; adopt its estimate instead of re-deriving
            # one in parallel.
            self._srtt_us = ctx.srtt_us
            run_append(ctx)

            feedback = ctx.ack.feedback
            if not isinstance(feedback, PbeFeedback):
                # Feedback lost/corrupted off this ACK; the watchdog
                # decides when the silence has lasted long enough.
                bbr_block(run)
                run.clear()
                self._check_watchdog(now)
                continue
            if feedback.stale:
                # The client itself flagged the report as an echo of a
                # dead decode stream — do not steer by its rates.
                self.stale_feedback_acks += 1
                bbr_block(run)
                run.clear()
                self._check_watchdog(now)
                continue
            if self.state == FALLBACK:
                bbr_block(run)
                run.clear()
                self._resync_after_fallback(now)  # reads bbr.btlbw_bps
            self._last_fresh_us = now
            if feedback is not decoded:
                # The client shares one feedback object between the ACKs
                # of a report: decode its two rates once per object.
                decoded = feedback
                target_rate = feedback.target_rate_bps
                fair_rate = feedback.fair_rate_bps
            self.target_rate_bps = target_rate
            self.fair_rate_bps = fair_rate
            if (self.state == STARTUP and self._ramp_start_us is None
                    and fair_rate > 0):
                self._ramp_start_us = now  # first Cf report arms the ramp

            if (feedback.carrier_activated
                    and self.state in (WIRELESS, STARTUP)):
                # §4.1: more carriers activated -> restart the fair-share
                # approach from the current operating rate.  Reads no
                # BBR state: keep the run open.
                self._ramp_base_bps = self._current_wireless_rate(now)
                self._ramp_start_us = now
                self._switch(STARTUP, now)
                continue

            if feedback.internet_bottleneck:
                if run:  # may be empty after a same-ACK fallback resync
                    bbr_block(run)
                    run.clear()
                if self.state in (STARTUP, WIRELESS):
                    # §4.2.3: drain the queue for one RTprop first.
                    self._drain_until_us = now + self.rtprop_us
                    self._switch(DRAIN, now)
                elif self.state == DRAIN and now >= self._drain_until_us:
                    bbr.filled_pipe = True
                    if bbr.state != PROBE_BW:
                        bbr.enter_probe_bw(now)
                    self._switch(INTERNET, now)
                continue

            if self.state in (DRAIN, INTERNET):
                self._switch(WIRELESS, now)
            elif self.state == STARTUP and self._ramp_progress(now) >= 1.0:
                self._switch(WIRELESS, now)
        if run:
            bbr_block(run)

    def on_timeout(self, now_us: int) -> None:
        self.bbr.on_timeout(now_us)
        self._ramp_base_bps = 0.0
        self._ramp_start_us = now_us
        self._switch(STARTUP, now_us)

    # ------------------------------------------------------------------
    # Rate control
    # ------------------------------------------------------------------
    def _ramp_progress(self, now_us: int) -> float:
        if self._ramp_start_us is None:
            return 0.0
        ramp_us = RAMP_RTTS * max(self._srtt_us, 10_000)
        return min(1.0, (now_us - self._ramp_start_us) / ramp_us)

    def _current_wireless_rate(self, now_us: int) -> float:
        if self.state == STARTUP:
            if self._ramp_start_us is None:
                return self.initial_rate_bps
            progress = self._ramp_progress(now_us)
            goal = self.fair_rate_bps or self.initial_rate_bps
            return max(self.initial_rate_bps,
                       self._ramp_base_bps
                       + (goal - self._ramp_base_bps) * progress)
        return self.target_rate_bps or self.initial_rate_bps

    def pacing_rate_bps(self, now_us: int) -> float:
        self._check_watchdog(now_us)
        if self.state == STARTUP:
            return self._current_wireless_rate(now_us)
        if self.state == WIRELESS:
            return WIRELESS_PACING_GAIN * self._current_wireless_rate(now_us)
        if self.state == DRAIN:
            btlbw = self.bbr.btlbw_bps or self.target_rate_bps
            return max(self.initial_rate_bps, DRAIN_GAIN * btlbw)
        return self.bbr.pacing_rate_bps(now_us)

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        self._check_watchdog(now_us)
        slack = CWND_SLACK_PACKETS * self.mss_bits
        if self.state in (STARTUP, WIRELESS, DRAIN):
            rate = self._current_wireless_rate(now_us)
            bdp = rate * (self.rtprop_us + self.retx_margin_us) / US_PER_S
            return bdp + slack
        return self.bbr.cwnd_bits(now_us)

    def rate_valid_until_us(self, now_us: int) -> int:
        """Outside the STARTUP ramp the rate and window move only on
        callbacks — or when the feedback watchdog fires, so the answers
        hold up to its deadline; :meth:`_check_watchdog` then trips at
        the first packet paced past it, as it would asked every packet.
        With no armed watchdog (FALLBACK, or before the first ACK) the
        sender is simply re-asked per packet."""
        reference = (self._last_fresh_us if self._last_fresh_us is not None
                     else self._first_ack_us)
        if self.state in (STARTUP, FALLBACK) or reference is None:
            return now_us
        return reference + self._watchdog_timeout_us()
