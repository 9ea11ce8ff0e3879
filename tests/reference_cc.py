"""The per-ACK BBR and PBE-CC bodies, kept verbatim as oracles.

These are ``Bbr.on_ack`` with its five state-machine helpers and
``_enter_probe_bw``, and ``PbeSender.on_ack``, as they stood beside the
burst bodies that are now each controller's only ACK body: one ACK at a
time, every filter sample inserted on its own, every helper a method
call.  Each class's ``on_ack_block`` is the base-class loop over its
``on_ack``, so a burst reaches the per-ACK body one context at a time.
Nothing under ``src/`` imports this module; ``tests/reference_engine.py``
builds its BBR and PBE flows from these classes, and ``test_cc_block``,
``test_pacing_controllers`` and ``test_cc_bodies`` run them beside the
engine's controllers.
"""

from __future__ import annotations

from repro.baselines.base import AckContext, CongestionControl
from repro.baselines.bbr import (BTLBW_FILTER_ROUNDS, CWND_GAIN, DRAIN,
                                 PROBE_BW, PROBE_BW_GAINS, PROBE_RTT,
                                 PROBE_RTT_DURATION_US, RTPROP_WINDOW_US,
                                 STARTUP, STARTUP_GAIN, Bbr)
from repro.core import sender
from repro.core.feedback import PbeFeedback
from repro.core.sender import FALLBACK, INTERNET, WIRELESS, PbeSender

# The verbatim bodies use the bare names for both state machines; BBR's
# STARTUP and DRAIN are PBE's by value.
assert (STARTUP, DRAIN) == (sender.STARTUP, sender.DRAIN)


class ReferenceBbr(Bbr):
    """BBR v1 that folds every ACK on its own."""

    on_ack_block = CongestionControl.on_ack_block

    def on_ack(self, ctx: AckContext) -> None:
        now = ctx.now_us
        self._delivered_bits += ctx.newly_acked_bits

        if ctx.rtt_us > 0:
            previous_min = self._rtprop.get()
            self._rtprop.update(now, ctx.rtt_us)
            value = self._rtprop.get()
            self.rtprop_us = int(value) if value else 0
            # The staleness stamp refreshes only when the minimum itself
            # is refreshed — otherwise PROBE_RTT could never trigger.
            if previous_min is None or ctx.rtt_us <= previous_min:
                self._rtprop_stamp = now
        rtprop = max(self.rtprop_us, 1_000)
        self._btlbw.window_us = BTLBW_FILTER_ROUNDS * rtprop
        if ctx.delivery_rate_bps > 0 and not ctx.app_limited:
            self._btlbw.update(now, ctx.delivery_rate_bps)
            self.btlbw_bps = self._btlbw.get() or 0.0

        # Round accounting: one round per RTprop worth of delivered data.
        round_ended = (self._delivered_bits - self._round_start_delivered
                       >= self.bdp_bits())
        if round_ended:
            self._round_start_delivered = self._delivered_bits
            self._check_full_pipe()

        if self.state == STARTUP and self.filled_pipe:
            self._enter_drain()
        if self.state == DRAIN and ctx.inflight_bits <= self.bdp_bits():
            self._enter_probe_bw(now)
        if self.state == PROBE_BW:
            self._advance_cycle(now, ctx.inflight_bits)
        self._maybe_enter_probe_rtt(now, ctx.inflight_bits)
        if self.state == PROBE_RTT:
            self._run_probe_rtt(now, ctx.inflight_bits, round_ended)

    def _check_full_pipe(self) -> None:
        if self.filled_pipe or self.state != STARTUP:
            return
        if self.btlbw_bps >= self._full_bw * 1.25:
            self._full_bw = self.btlbw_bps
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= 3:
            self.filled_pipe = True

    def _enter_drain(self) -> None:
        self.state = DRAIN
        self.pacing_gain = 1.0 / STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN

    def _enter_probe_bw(self, now_us: int) -> None:
        self.state = PROBE_BW
        self.cwnd_gain = CWND_GAIN
        self._cycle_index = 2  # start in a cruise phase
        self._cycle_stamp = now_us
        self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _advance_cycle(self, now_us: int, inflight_bits: int) -> None:
        rtprop = max(self.rtprop_us, 1_000)
        if now_us - self._cycle_stamp < rtprop:
            return
        # Hold the drain phase until the probe's queue actually drains.
        if (self.pacing_gain < 1.0 and inflight_bits > self.bdp_bits()):
            return
        self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
        self._cycle_stamp = now_us
        self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _maybe_enter_probe_rtt(self, now_us: int,
                               inflight_bits: int) -> None:
        if self.state == PROBE_RTT or not self.rtprop_us:
            return
        if now_us - self._rtprop_stamp <= RTPROP_WINDOW_US:
            return
        self.state = PROBE_RTT
        self.pacing_gain = 1.0
        self._probe_rtt_done_at = None

    def _run_probe_rtt(self, now_us: int, inflight_bits: int,
                       round_ended: bool) -> None:
        if (self._probe_rtt_done_at is None
                and inflight_bits <= 4 * self.mss_bits):
            self._probe_rtt_done_at = now_us + PROBE_RTT_DURATION_US
        if (self._probe_rtt_done_at is not None
                and now_us >= self._probe_rtt_done_at):
            self._rtprop_stamp = now_us
            if self.filled_pipe:
                self._enter_probe_bw(now_us)
            else:
                self.state = STARTUP
                self.pacing_gain = STARTUP_GAIN
                self.cwnd_gain = STARTUP_GAIN


class ReferencePbeSender(PbeSender):
    """PBE-CC that folds every ACK on its own, embedding a
    :class:`ReferenceBbr` fed one ACK at a time."""

    on_ack_block = CongestionControl.on_ack_block

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bbr = ReferenceBbr(initial_rate_bps=self.initial_rate_bps,
                                probe_rate_cap=self._fair_share_cap)

    def on_ack(self, ctx: AckContext) -> None:
        now = ctx.now_us
        if self._first_ack_us is None:
            self._first_ack_us = now
        # The transport layer already runs the standard EWMA srtt filter
        # over every ACK; adopt its estimate instead of re-deriving one
        # in parallel (the two filters used to run side by side and
        # could only stay equal by construction — now they cannot
        # drift by definition).
        self._srtt_us = ctx.srtt_us
        self.bbr.on_ack(ctx)

        feedback = ctx.ack.feedback
        if not isinstance(feedback, PbeFeedback):
            # Feedback lost/corrupted off this ACK; the watchdog decides
            # when the silence has lasted long enough to fall back.
            self._check_watchdog(now)
            return
        if feedback.stale:
            # The client itself flagged the report as an echo of a dead
            # decode stream — do not steer by its rates.
            self.stale_feedback_acks += 1
            self._check_watchdog(now)
            return
        if self.state == FALLBACK:
            self._resync_after_fallback(now)
        self._last_fresh_us = now
        self.target_rate_bps = feedback.target_rate_bps
        self.fair_rate_bps = feedback.fair_rate_bps
        if (self.state == STARTUP and self._ramp_start_us is None
                and self.fair_rate_bps > 0):
            self._ramp_start_us = now  # first Cf report arms the ramp

        if feedback.carrier_activated and self.state in (WIRELESS, STARTUP):
            # §4.1: more carriers activated -> restart the fair-share
            # approach from the current operating rate.
            self._ramp_base_bps = self._current_wireless_rate(now)
            self._ramp_start_us = now
            self._switch(STARTUP, now)
            return

        if feedback.internet_bottleneck:
            if self.state in (STARTUP, WIRELESS):
                # §4.2.3: drain the queue for one RTprop first.
                self._drain_until_us = now + self.rtprop_us
                self._switch(DRAIN, now)
            elif self.state == DRAIN and now >= self._drain_until_us:
                self.bbr.filled_pipe = True
                if self.bbr.state != PROBE_BW:
                    self.bbr.enter_probe_bw(now)
                self._switch(INTERNET, now)
            return

        if self.state in (DRAIN, INTERNET):
            self._switch(WIRELESS, now)
        elif self.state == STARTUP and self._ramp_progress(now) >= 1.0:
            self._switch(WIRELESS, now)

