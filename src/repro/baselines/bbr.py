"""TCP BBR (v1) congestion control [Cardwell et al., ACM Queue 2016].

The strongest baseline in the paper's evaluation, and the skeleton that
PBE-CC's Internet-bottleneck mode adapts (§4.2.3).  This implementation
follows the BBR v1 state machine: STARTUP (2/ln2 pacing gain, exit when
the bottleneck-bandwidth filter plateaus for three rounds), DRAIN,
PROBE_BW (the eight-phase gain cycle of the paper's Figure 9, each
phase one RTprop long) and PROBE_RTT (cwnd of four packets for 200 ms
every 10 s).

``probe_rate_cap`` is the one extension point PBE-CC uses: a callable
returning an upper bound on the probing rate, implementing the paper's
``Cprobe = min(1.25·BtlBw, Cf)`` (Eqn. 7).  For plain BBR it is None.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..net.units import US_PER_S
from .base import UNTIL_CALLBACK, AckContext, CongestionControl
from .windowed import WindowedMax, WindowedMin

#: 2/ln2 — BBR's startup pacing/cwnd gain.
STARTUP_GAIN = 2.0 / math.log(2.0)
#: ProbeBW pacing-gain cycle (paper Figure 9).
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: BtlBw max-filter window, in round trips.
BTLBW_FILTER_ROUNDS = 10
#: RTprop min-filter window, µs.
RTPROP_WINDOW_US = 10 * US_PER_S
#: PROBE_RTT duration, µs.
PROBE_RTT_DURATION_US = 200_000
#: cwnd gain outside PROBE_RTT.
CWND_GAIN = 2.0

STARTUP, DRAIN, PROBE_BW, PROBE_RTT = "startup", "drain", "probe_bw", \
    "probe_rtt"


class Bbr(CongestionControl):
    """BBR v1 over the shared :class:`~repro.baselines.base.Sender`."""

    name = "bbr"

    #: Checkpointing: the probe cap is a bound method of the embedding
    #: PBE sender (or None); the rebuilt wiring supplies it.
    SNAPSHOT_SKIP = ("probe_rate_cap",)

    def __init__(self, initial_rate_bps: float = 2.4e6,
                 probe_rate_cap: Optional[Callable[[], Optional[float]]]
                 = None) -> None:
        if initial_rate_bps <= 0:
            raise ValueError("initial rate must be positive")
        self.initial_rate_bps = initial_rate_bps
        self.probe_rate_cap = probe_rate_cap

        self.state = STARTUP
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN

        self._btlbw = WindowedMax(US_PER_S)  # window retuned per RTT
        self._rtprop = WindowedMin(RTPROP_WINDOW_US)
        self._rtprop_stamp = 0
        # Cached filter outputs.  Both filters only change inside
        # on_ack_block(), so these attributes — refreshed there — are
        # always equal to the filter reads they replace; every other
        # method (and external readers like the PBE sender) hits the
        # cache.
        self.btlbw_bps = 0.0
        self.rtprop_us = 0

        self._round_start_delivered = 0
        self._delivered_bits = 0

        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.filled_pipe = False

        self._cycle_index = 0
        self._cycle_stamp = 0
        self._probe_rtt_done_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def bdp_bits(self, gain: float = 1.0) -> float:
        if not self.btlbw_bps or not self.rtprop_us:
            return gain * 10 * self.mss_bits
        return gain * self.btlbw_bps * self.rtprop_us / US_PER_S

    # ------------------------------------------------------------------
    # ACK processing / state machine
    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        self.on_ack_block([ctx])

    def on_ack_block(self, contexts: list[AckContext]) -> None:
        """BBR's one ACK body: one uplink flush, all at one instant.

        The contexts share ``now_us`` (a mismatch raises
        :class:`ValueError`), so the burst's filter inserts all carry
        one timestamp and collapse to one insert of its extreme at the
        end: sequential inserts would only add dominated tail entries
        that expire with it.  In between, the filter outputs are running
        extremes in locals.  Three transients move RTprop — and with it
        the BDP, the cycle length and the BtlBw window — mid-burst: a
        cold filter, a head the 10 s window expires at ``now`` (the
        pre-expiry head decides the staleness stamp, then a walk exposes
        the next head) and a new minimum.  The BtlBw filter is walked at
        the burst's first rate sample and again only after its window
        shrank.  ``tests/reference_cc.py`` keeps the per-ACK body this
        replaced.
        """
        now = contexts[0].now_us
        if contexts[-1].now_us != now:
            raise ValueError("an ACK burst must share one instant, got "
                             f"{now} and {contexts[-1].now_us} µs")
        mss_bits = self.mss_bits
        probe_rtt_floor = 4 * mss_bits
        rt_samples = self._rtprop._samples
        bt_samples = self._btlbw._samples

        # RTprop: ``rt_min`` is the filter output after the samples so
        # far.  A cold filter or a head that expires at ``now`` starts it
        # at infinity, so the first RTT sample takes the walk.
        rt_walk = (not rt_samples
                   or rt_samples[0][0] < now - RTPROP_WINDOW_US)
        rt_min = math.inf if rt_walk else rt_samples[0][1]
        block_min = math.inf   # the burst's RTT minimum, inserted at the end
        rtprop = self.rtprop_us
        rtprop_floor = max(rtprop, 1_000)
        bt_window = BTLBW_FILTER_ROUNDS * rtprop_floor
        bt_walk = True         # expire the BtlBw filter at the next sample
        bw_run = 0.0           # BtlBw filter output once walked
        block_rate_max = 0.0   # the burst's rate maximum, inserted at the end

        # ---- Hoisted state --------------------------------------------
        delivered = self._delivered_bits
        round_start_delivered = self._round_start_delivered
        rtprop_stamp = self._rtprop_stamp
        btlbw = self.btlbw_bps
        full_bw = self._full_bw
        full_bw_rounds = self._full_bw_rounds
        filled_pipe = self.filled_pipe
        state = self.state
        pacing_gain = self.pacing_gain
        cwnd_gain = self.cwnd_gain
        cycle_index = self._cycle_index
        cycle_stamp = self._cycle_stamp
        probe_rtt_done_at = self._probe_rtt_done_at
        bdp = (btlbw * rtprop / US_PER_S
               if btlbw and rtprop else 10.0 * mss_bits)

        for ctx in contexts:
            delivered += ctx.newly_acked_bits
            rtt = ctx.rtt_us
            # Once the burst has an RTT sample, rt_min <= block_min: an
            # RTT at or above the burst minimum can only re-observe the
            # filter minimum, which refreshes the staleness stamp.
            if rtt < block_min:
                if rtt > 0:
                    block_min = rtt
                    if rtt < rt_min:  # a new minimum, or the walk
                        if rt_walk:
                            rt_walk = False
                            if not rt_samples or rtt <= rt_samples[0][1]:
                                rtprop_stamp = now
                            horizon = now - RTPROP_WINDOW_US
                            while rt_samples and rt_samples[0][0] < horizon:
                                rt_samples.popleft()
                            rt_min = (rt_samples[0][1] if rt_samples
                                      and rt_samples[0][1] < rtt else rtt)
                        else:
                            rtprop_stamp = now
                            rt_min = rtt
                        rtprop = int(rt_min)
                        rtprop_floor = max(rtprop, 1_000)
                        window = BTLBW_FILTER_ROUNDS * rtprop_floor
                        if window < bt_window:
                            bt_walk = True
                        bt_window = window
                        bdp = (btlbw * rtprop / US_PER_S
                               if btlbw and rtprop else 10.0 * mss_bits)
                    elif rtt == rt_min:
                        rtprop_stamp = now
            elif rtt == rt_min:
                rtprop_stamp = now

            rate = ctx.delivery_rate_bps
            if rate > 0 and not ctx.app_limited:
                if bt_walk:
                    bt_walk = False
                    horizon = now - bt_window
                    while bt_samples and bt_samples[0][0] < horizon:
                        bt_samples.popleft()
                    bw_run = bt_samples[0][1] if bt_samples else 0.0
                    if block_rate_max > bw_run:
                        bw_run = block_rate_max
                if rate > block_rate_max:
                    block_rate_max = rate
                    if rate > bw_run:
                        bw_run = rate
                if bw_run != btlbw:
                    btlbw = bw_run
                    bdp = (btlbw * rtprop / US_PER_S
                           if btlbw and rtprop else 10.0 * mss_bits)

            if delivered - round_start_delivered >= bdp:
                round_start_delivered = delivered
                # Full-pipe check: three rounds without 25 % growth.
                if not filled_pipe and state == STARTUP:
                    if btlbw >= full_bw * 1.25:
                        full_bw = btlbw
                        full_bw_rounds = 0
                    else:
                        full_bw_rounds += 1
                        if full_bw_rounds >= 3:
                            filled_pipe = True

            inflight = ctx.inflight_bits
            if state == STARTUP and filled_pipe:  # enter DRAIN
                state = DRAIN
                pacing_gain = 1.0 / STARTUP_GAIN
                cwnd_gain = STARTUP_GAIN
            if state == DRAIN and inflight <= bdp:  # enter PROBE_BW
                state = PROBE_BW
                cwnd_gain = CWND_GAIN
                cycle_index = 2
                cycle_stamp = now
                pacing_gain = PROBE_BW_GAINS[2]
            if state == PROBE_BW:
                # Advance the gain cycle once per RTprop, holding the
                # drain phase until the probe's queue actually drains.
                if now - cycle_stamp >= rtprop_floor and not (
                        pacing_gain < 1.0 and inflight > bdp):
                    cycle_index = (cycle_index + 1) % len(PROBE_BW_GAINS)
                    cycle_stamp = now
                    pacing_gain = PROBE_BW_GAINS[cycle_index]
            if (state != PROBE_RTT and rtprop
                    and now - rtprop_stamp > RTPROP_WINDOW_US):
                state = PROBE_RTT  # the minimum went stale
                pacing_gain = 1.0
                probe_rtt_done_at = None
            if state == PROBE_RTT:
                if (probe_rtt_done_at is None
                        and inflight <= probe_rtt_floor):
                    probe_rtt_done_at = now + PROBE_RTT_DURATION_US
                if (probe_rtt_done_at is not None
                        and now >= probe_rtt_done_at):
                    rtprop_stamp = now
                    if filled_pipe:  # enter PROBE_BW
                        state = PROBE_BW
                        cwnd_gain = CWND_GAIN
                        cycle_index = 2
                        cycle_stamp = now
                        pacing_gain = PROBE_BW_GAINS[2]
                    else:
                        state = STARTUP
                        pacing_gain = STARTUP_GAIN
                        cwnd_gain = STARTUP_GAIN

        # ---- Write-back + the per-burst filter inserts ----------------
        if block_min != math.inf:
            while rt_samples and rt_samples[-1][1] >= block_min:
                rt_samples.pop()
            rt_samples.append((now, block_min))
        if block_rate_max:
            while bt_samples and bt_samples[-1][1] <= block_rate_max:
                bt_samples.pop()
            bt_samples.append((now, block_rate_max))
        self._btlbw.window_us = bt_window
        self.rtprop_us = rtprop
        self._delivered_bits = delivered
        self._round_start_delivered = round_start_delivered
        self._rtprop_stamp = rtprop_stamp
        self.btlbw_bps = btlbw
        self._full_bw = full_bw
        self._full_bw_rounds = full_bw_rounds
        self.filled_pipe = filled_pipe
        self.state = state
        self.pacing_gain = pacing_gain
        self.cwnd_gain = cwnd_gain
        self._cycle_index = cycle_index
        self._cycle_stamp = cycle_stamp
        self._probe_rtt_done_at = probe_rtt_done_at

    def enter_probe_bw(self, now_us: int) -> None:
        """Jump straight into PROBE_BW (used by PBE-CC's §4.2.3 entry)."""
        self.state = PROBE_BW
        self.cwnd_gain = CWND_GAIN
        self._cycle_index = 2  # start in a cruise phase
        self._cycle_stamp = now_us
        self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def on_timeout(self, now_us: int) -> None:
        # Fall back to startup with a clean bandwidth estimate.
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.filled_pipe = False
        self.state = STARTUP
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN

    # ------------------------------------------------------------------
    # Control outputs
    # ------------------------------------------------------------------
    def pacing_rate_bps(self, now_us: int) -> float:
        if not self.btlbw_bps:
            return self.initial_rate_bps
        rate = self.pacing_gain * self.btlbw_bps
        if (self.state == PROBE_BW and self.pacing_gain > 1.0
                and self.probe_rate_cap is not None):
            cap = self.probe_rate_cap()
            if cap is not None:
                rate = min(rate, max(cap, self.btlbw_bps))
        return rate

    def cwnd_bits(self, now_us: int) -> Optional[float]:
        if self.state == PROBE_RTT:
            return 4.0 * self.mss_bits
        return max(4.0 * self.mss_bits, self.bdp_bits(self.cwnd_gain))

    def rate_valid_until_us(self, now_us: int) -> int:
        # The state machine and both cached filter outputs move only on
        # callbacks; a probe cap is someone else's state (PBE's Cf).
        if self.probe_rate_cap is None:
            return UNTIL_CALLBACK
        return now_us
