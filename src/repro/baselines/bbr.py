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

from ..net.units import MSS_BITS, US_PER_S
from .base import AckContext, CongestionControl
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
                 mss_bits: int = MSS_BITS,
                 probe_rate_cap: Optional[Callable[[], Optional[float]]]
                 = None) -> None:
        if initial_rate_bps <= 0:
            raise ValueError("initial rate must be positive")
        self.mss_bits = mss_bits
        self.initial_rate_bps = initial_rate_bps
        self.probe_rate_cap = probe_rate_cap

        self.state = STARTUP
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN

        self._btlbw = WindowedMax(US_PER_S)  # window retuned per RTT
        self._rtprop = WindowedMin(RTPROP_WINDOW_US)
        self._rtprop_stamp = 0
        # Cached filter outputs.  Both filters only change inside
        # on_ack(), so these attributes — refreshed there — are always
        # equal to the filter reads they replace; every other method
        # (and external readers like the PBE sender) hits the cache.
        self.btlbw_bps = 0.0
        self.rtprop_us = 0

        self._round_start_delivered = 0
        self._delivered_bits = 0
        self._round_count = 0

        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.filled_pipe = False

        self._cycle_index = 0
        self._cycle_stamp = 0
        self._probe_rtt_done_at: Optional[int] = None
        self._probe_rtt_round_done = False

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
            self._round_count += 1
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

    def on_ack_block(self, contexts: list[AckContext]) -> None:
        """Columnar BBR over one grant cycle's ACKs, byte-identical.

        Fast-path precondition: one flush event (every context shares
        ``now_us``), a warm RTprop filter whose head sample neither
        expires at ``now`` nor is undercut by any RTT in the block, and
        a cache in sync with that head.  Under it the RTprop minimum —
        and therefore the BtlBw window and the BDP's rtprop factor —
        are *block constants*, so both filters collapse to per-block
        aggregates: a running min/max in locals for the intermediate
        cache reads, plus **one** deque insert of the block extreme at
        the end.  (Sequential inserts of the non-extreme samples only
        add tail entries that share the block's timestamp and are
        dominated by the extreme — they expire in the same instant the
        extreme does and can never surface as the filter output, so
        eliding them is unobservable; decisions and cached outputs are
        pinned equal by ``tests/test_cc_block.py``.)  The round
        accounting and the full state machine run inlined on hoisted
        locals with a single write-back.

        Startup transients (cold filter, a new minimum, an expiring
        head) take the scalar loop — exactly PR 9's hoisted reference.
        """
        if len(contexts) == 1:
            self.on_ack(contexts[0])
            return
        now = contexts[0].now_us
        rt_samples = self._rtprop._samples
        if (contexts[-1].now_us != now or not rt_samples
                or rt_samples[0][0] < now - RTPROP_WINDOW_US
                or self.rtprop_us != int(rt_samples[0][1])):
            on_ack = self.on_ack
            for ctx in contexts:
                on_ack(ctx)
            return
        rt_head = rt_samples[0][1]
        block_min = None  # min RTT once per ACK burst, not per ACK
        for ctx in contexts:
            rtt = ctx.rtt_us
            if rtt > 0 and (block_min is None or rtt < block_min):
                block_min = rtt
        if block_min is not None and block_min < rt_head:
            on_ack = self.on_ack  # new minimum: scalar reference
            for ctx in contexts:
                on_ack(ctx)
            return

        # ---- Block constants ------------------------------------------
        rtprop_cache = self.rtprop_us          # cannot move this block
        rtprop_floor = max(rtprop_cache, 1_000)
        bt_filter = self._btlbw
        bt_filter.window_us = BTLBW_FILTER_ROUNDS * rtprop_floor
        bt_samples = bt_filter._samples
        mss_bits = self.mss_bits
        probe_rtt_floor = 4 * mss_bits

        # ---- Hoisted state --------------------------------------------
        delivered = self._delivered_bits
        round_start_delivered = self._round_start_delivered
        round_count = self._round_count
        rtprop_stamp = self._rtprop_stamp
        btlbw_cache = self.btlbw_bps
        bw_run = None          # running max once the filter is touched
        block_rate_max = None  # max delivery-rate sample this batch
        full_bw = self._full_bw
        full_bw_rounds = self._full_bw_rounds
        filled_pipe = self.filled_pipe
        state = self.state
        pacing_gain = self.pacing_gain
        cwnd_gain = self.cwnd_gain
        cycle_index = self._cycle_index
        cycle_stamp = self._cycle_stamp
        probe_rtt_done_at = self._probe_rtt_done_at
        bdp = (btlbw_cache * rtprop_cache / US_PER_S
               if btlbw_cache and rtprop_cache else 10.0 * mss_bits)

        for ctx in contexts:
            delivered += ctx.newly_acked_bits
            rtt = ctx.rtt_us
            if rtt > 0 and rtt <= rt_head:
                # The minimum itself was re-observed: refresh staleness.
                rtprop_stamp = now
            rate = ctx.delivery_rate_bps
            if rate > 0 and not ctx.app_limited:
                if bw_run is None:
                    # First touch: expire under the (constant) window,
                    # then run the max in locals.
                    horizon = now - bt_filter.window_us
                    while bt_samples and bt_samples[0][0] < horizon:
                        bt_samples.popleft()
                    bw_run = bt_samples[0][1] if bt_samples else 0.0
                    block_rate_max = rate
                elif rate > block_rate_max:
                    block_rate_max = rate
                if rate > bw_run:
                    bw_run = rate
                if bw_run != btlbw_cache:
                    btlbw_cache = bw_run
                    bdp = (btlbw_cache * rtprop_cache / US_PER_S
                           if btlbw_cache and rtprop_cache
                           else 10.0 * mss_bits)

            if delivered - round_start_delivered >= bdp:
                round_start_delivered = delivered
                round_count += 1
                # _check_full_pipe, inlined on locals.
                if not filled_pipe and state == STARTUP:
                    if btlbw_cache >= full_bw * 1.25:
                        full_bw = btlbw_cache
                        full_bw_rounds = 0
                    else:
                        full_bw_rounds += 1
                        if full_bw_rounds >= 3:
                            filled_pipe = True
                round_ended = True
            else:
                round_ended = False

            inflight = ctx.inflight_bits
            if state == STARTUP and filled_pipe:  # _enter_drain
                state = DRAIN
                pacing_gain = 1.0 / STARTUP_GAIN
                cwnd_gain = STARTUP_GAIN
            if state == DRAIN and inflight <= bdp:  # _enter_probe_bw
                state = PROBE_BW
                cwnd_gain = CWND_GAIN
                cycle_index = 2
                cycle_stamp = now
                pacing_gain = PROBE_BW_GAINS[2]
            if state == PROBE_BW:  # _advance_cycle
                if now - cycle_stamp >= rtprop_floor and not (
                        pacing_gain < 1.0 and inflight > bdp):
                    cycle_index = (cycle_index + 1) % len(PROBE_BW_GAINS)
                    cycle_stamp = now
                    pacing_gain = PROBE_BW_GAINS[cycle_index]
            if (state != PROBE_RTT and rtprop_cache
                    and now - rtprop_stamp > RTPROP_WINDOW_US):
                state = PROBE_RTT  # _maybe_enter_probe_rtt
                pacing_gain = 1.0
                probe_rtt_done_at = None
            if state == PROBE_RTT:  # _run_probe_rtt
                if (probe_rtt_done_at is None
                        and inflight <= probe_rtt_floor):
                    probe_rtt_done_at = now + PROBE_RTT_DURATION_US
                if (probe_rtt_done_at is not None
                        and now >= probe_rtt_done_at):
                    rtprop_stamp = now
                    if filled_pipe:  # _enter_probe_bw
                        state = PROBE_BW
                        cwnd_gain = CWND_GAIN
                        cycle_index = 2
                        cycle_stamp = now
                        pacing_gain = PROBE_BW_GAINS[2]
                    else:
                        state = STARTUP
                        pacing_gain = STARTUP_GAIN
                        cwnd_gain = STARTUP_GAIN

        # ---- Write-back + the per-block filter inserts ----------------
        if block_min is not None:
            while rt_samples and rt_samples[-1][1] >= block_min:
                rt_samples.pop()
            rt_samples.append((now, block_min))
        if block_rate_max is not None:
            while bt_samples and bt_samples[-1][1] <= block_rate_max:
                bt_samples.pop()
            bt_samples.append((now, block_rate_max))
        self._delivered_bits = delivered
        self._round_start_delivered = round_start_delivered
        self._round_count = round_count
        self._rtprop_stamp = rtprop_stamp
        self.btlbw_bps = btlbw_cache
        self._full_bw = full_bw
        self._full_bw_rounds = full_bw_rounds
        self.filled_pipe = filled_pipe
        self.state = state
        self.pacing_gain = pacing_gain
        self.cwnd_gain = cwnd_gain
        self._cycle_index = cycle_index
        self._cycle_stamp = cycle_stamp
        self._probe_rtt_done_at = probe_rtt_done_at

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

    def enter_probe_bw(self, now_us: int) -> None:
        """Jump straight into PROBE_BW (used by PBE-CC's §4.2.3 entry)."""
        self._enter_probe_bw(now_us)

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
