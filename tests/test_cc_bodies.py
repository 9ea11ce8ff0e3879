"""BBR's and PBE-CC's one burst body against their frozen per-ACK bodies.

``Bbr.on_ack_block`` and ``PbeSender.on_ack_block`` are each
controller's only ACK body; ``tests/reference_cc.py`` keeps the per-ACK
bodies they replaced.  The simulator differentials (``test_cc_block``,
``test_pacing_controllers``, the goldens) run well under a second of
simulated time, so the 10 s RTprop window never expires and PROBE_RTT
never fires in them.  This differential has no simulator: it feeds both
bodies the same random bursts — instants that jump by up to 12 s, RTTs
that re-observe, undercut and trail the minimum, zero and app-limited
rates — and after every burst requires the same observable state
(``test_cc_block._cc_state``) and the same three answers.

The named cases pin the three transients that move the RTprop minimum
inside a burst (a cold filter, a head that expires at the burst's
instant, a new minimum) and the one-instant contract.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base import AckContext
from repro.baselines.bbr import (PROBE_BW, PROBE_RTT, RTPROP_WINDOW_US,
                                 STARTUP, Bbr)
from repro.core.feedback import PbeFeedback
from repro.core.sender import PbeSender
from repro.net.packet import Packet

from .reference_cc import ReferenceBbr, ReferencePbeSender
from .test_cc_block import _cc_state, pbe_at_6mbps

FEEDBACK = {
    "none": None,
    "fresh": PbeFeedback.from_rates(12e6, 8e6, False),
    "fast": PbeFeedback.from_rates(40e6, 30e6, False),
    "stale": PbeFeedback.from_rates(12e6, 8e6, False, stale=True),
    "internet": PbeFeedback.from_rates(12e6, 8e6, True),
    "activated": PbeFeedback.from_rates(20e6, 15e6, False, True),
}

PAIRS = {
    "bbr": lambda: (Bbr(initial_rate_bps=6e6),
                    ReferenceBbr(initial_rate_bps=6e6)),
    "bbr_capped": lambda: (
        Bbr(initial_rate_bps=6e6, probe_rate_cap=lambda: 9e6),
        ReferenceBbr(initial_rate_bps=6e6, probe_rate_cap=lambda: 9e6)),
    "pbe": lambda: (pbe_at_6mbps(PbeSender),
                    pbe_at_6mbps(ReferencePbeSender)),
}


def _ctx(now_us, rtt_us=40_000, rate_bps=20e6, bits=12_000,
         inflight=120_000, app_limited=False, feedback=None, seq=0):
    ack = Packet(1, seq, is_ack=True, feedback=feedback)
    return AckContext(ack=ack, now_us=now_us, rtt_us=rtt_us,
                      delivery_rate_bps=rate_bps, newly_acked_bits=bits,
                      inflight_bits=inflight, app_limited=app_limited,
                      srtt_us=max(rtt_us, 1))


def _answers(cc, now_us):
    return (cc.pacing_rate_bps(now_us), cc.cwnd_bits(now_us),
            cc.rate_valid_until_us(now_us))


def drive(pair, steps):
    """Feed ``steps`` — ``("burst", [ctx, ...])`` or ``("timeout", t)`` —
    to the engine's controller and the frozen one; after each, both must
    agree on state and answers.  Returns the engine's controller."""
    engine, reference = PAIRS[pair]()
    for kind, arg in steps:
        if kind == "timeout":
            now = arg
            engine.on_timeout(now)
            reference.on_timeout(now)
        else:
            now = arg[0].now_us
            engine.on_ack_block(arg)
            reference.on_ack_block(arg)
        assert _cc_state(engine) == _cc_state(reference), (kind, now)
        assert _answers(engine, now) == _answers(reference, now), now
    return engine


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

#: Instant steps: mostly ACK-clock gaps, sometimes past the 10 s window.
STEPS_US = st.one_of(
    st.integers(0, 60_000), st.integers(0, 60_000),
    st.sampled_from([0, 5_000, 200_000]),
    st.integers(9_000_000, 12_000_000))


def _contexts(rng, now_us, n, base):
    """``n`` contexts at ``now_us``.  RTTs sit near the burst's ``base``:
    equal values re-observe the minimum, smaller ones undercut it,
    larger ones trail it, and 0 is no sample."""
    kinds = sorted(FEEDBACK)
    out = []
    for seq in range(n):
        rtt = rng.choice((base, base, 0, base - 1_000, base - 5_000,
                          rng.randint(base, base + 40_000)))
        rate = rng.choice((0.0, rng.uniform(1e6, 60e6), 10e6, 20e6, 25e6))
        inflight = rng.choice((rng.randint(0, 48_000),
                               rng.randint(0, 600_000)))
        out.append(_ctx(now_us, rtt_us=rtt, rate_bps=rate,
                        bits=rng.choice((0, 12_000, 12_000, 24_000)),
                        inflight=inflight,
                        app_limited=rng.random() < 0.3,
                        feedback=FEEDBACK[rng.choice(kinds)], seq=seq))
    return out


@st.composite
def _steps(draw):
    """The burst structure is drawn; each burst's contexts come from a
    drawn seed, which keeps an 80-context burst one draw."""
    steps, now = [], 0
    for _ in range(draw(st.integers(1, 25))):
        now += draw(STEPS_US)
        if draw(st.integers(0, 15)):
            rng = random.Random(draw(st.integers(0, 2**32)))
            steps.append(("burst", _contexts(
                rng, now, draw(st.integers(1, 80)),
                draw(st.sampled_from([20_000, 30_000, 40_000, 60_000])))))
        else:
            steps.append(("timeout", now))
    return steps


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PAIRS)), _steps())
def test_burst_body_matches_the_per_ack_body(pair, steps):
    drive(pair, steps)


# ---------------------------------------------------------------------------
# The transients, one by one
# ---------------------------------------------------------------------------

def _burst(now_us, rtts, **kw):
    return ("burst", [_ctx(now_us, rtt_us=rtt, seq=i, **kw)
                      for i, rtt in enumerate(rtts)])


def test_cold_filter_takes_its_first_sample_mid_burst():
    bbr = drive("bbr", [_burst(1_000, [0, 0, 45_000, 50_000, 45_000])])
    assert bbr.rtprop_us == 45_000 and bbr._rtprop_stamp == 1_000


def test_expiring_head_decides_the_stamp_before_the_walk():
    """Past the window the 30 ms head expires; the next head is 50 ms.
    A 60 ms sample does not refresh the stamp (60 > the pre-expiry 30),
    and the walk makes 50 ms the minimum, which 55 ms trails; a 40 ms
    first sample becomes the minimum without refreshing the stamp, and
    a second 40 ms re-observes it."""
    warm = [_burst(0, [30_000]), _burst(5_000_000, [50_000])]
    later = RTPROP_WINDOW_US + 1_000
    bbr = drive("bbr", warm + [_burst(later, [60_000, 55_000])])
    assert bbr.rtprop_us == 50_000 and bbr._rtprop_stamp == 0
    assert bbr.state == PROBE_RTT  # the minimum went stale
    bbr = drive("bbr", warm + [_burst(later, [40_000])])
    assert bbr.rtprop_us == 40_000 and bbr._rtprop_stamp == 0
    bbr = drive("bbr", warm + [_burst(later, [40_000, 40_000])])
    assert bbr._rtprop_stamp == later
    bbr = drive("bbr", warm + [_burst(later, [30_000, 70_000])])
    assert bbr.rtprop_us == 30_000 and bbr._rtprop_stamp == later


def test_new_minimum_mid_burst_moves_bdp_window_and_cycle():
    """A PROBE_BW flow's minimum drops from 80 ms to 2 ms mid-burst: the
    BtlBw window shrinks from 800 ms to 20 ms, so the next rate sample
    expires the 60 Mbit/s max of 450 ms ago; the cycle clock and the
    BDP follow."""
    steps = [_burst(t, [80_000], bits=2_000_000, inflight=0)
             for t in range(0, 1_000_000, 100_000)]
    steps.append(_burst(1_000_000, [80_000], rate_bps=60e6, inflight=0))
    steps.append(_burst(1_450_000, [80_000, 2_000, 2_000, 90_000],
                        inflight=0))
    bbr = drive("bbr", steps[:-1])
    assert bbr.state == PROBE_BW and bbr.btlbw_bps == 60e6
    bbr = drive("bbr", steps)
    assert bbr.rtprop_us == 2_000 and bbr._btlbw.window_us == 20_000
    assert bbr.btlbw_bps == 20e6 and bbr.state == PROBE_BW


def test_probe_rtt_runs_its_course_under_bursts():
    steps = [_burst(t, [40_000], inflight=0)
             for t in range(0, 2_000_000, 40_000)]
    steps += [_burst(12_000_000 + t, [45_000], inflight=0)
              for t in range(0, 400_000, 40_000)]
    bbr = drive("bbr", steps)
    assert bbr.state != PROBE_RTT and bbr._rtprop_stamp > 12_000_000


def test_pbe_feeds_its_bbr_through_every_feedback_kind():
    steps = [("burst", [_ctx(t, feedback=FEEDBACK[kind], seq=i)
                        for i, kind in enumerate(kinds)])
             for t, kinds in ((0, ["fresh"] * 3),
                              (50_000, ["internet", "fresh"]),
                              (400_000, ["none", "stale", "fresh"]),
                              (420_000, ["activated", "internet"]),
                              (900_000, ["internet"] * 4))]
    pbe = drive("pbe", steps)
    assert pbe.fallback_entries == 1 and pbe.state == "internet"


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_a_burst_spans_one_instant(pair):
    engine, _ = PAIRS[pair]()
    with pytest.raises(ValueError, match="one instant"):
        engine.on_ack_block([_ctx(1_000), _ctx(1_001)])
    engine.on_ack_block([_ctx(1_000)])
    assert engine.on_ack(_ctx(2_000)) is None
    assert (engine.state if pair != "pbe" else engine.bbr.state) == STARTUP
