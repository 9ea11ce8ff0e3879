"""Real controllers under the engine's pacer against the per-packet pacer.

``tests/test_pacing_trains.py`` drives the train with a scripted
controller; this differential drives it with the schemes themselves —
CUBIC, Reno, Copa, BBR with and without a probe cap, and PBE-CC — whose
answers decide what the engine may skip: callback-bound ones
(:data:`UNTIL_CALLBACK`) are carried across wake-ups and a sender blocked
under them queues nothing, finite ones (PBE's watchdog deadline) are
carried up to their horizon under the 1 ms poll chain, default ones are
re-asked for every packet.  The oracle is ``tests/reference_pacer.py``:
one heap event per packet, both queries asked at every one, a 1 ms poll
while blocked, every ACK folded on its own — by BBR and PBE-CC through
their per-ACK bodies (``tests/reference_cc.py``).

Scripts mix ACK bursts and single ACKs (with PBE feedback fresh, stale,
lost, Internet-bottlenecked or carrier-activating), lost packets,
silences long enough for a retransmission timeout, ``stop``/``start``,
application-rate changes and a steady ACK clock, for one to three flows
on one simulator.  Both sides must put the same packets on the wire,
hand the controller the same callbacks in the same order, end with the
same counters and the same answers — and a blocked callback-bound
sender must hold no wake-up.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.baselines.base import UNTIL_CALLBACK, Sender
from repro.baselines.bbr import Bbr
from repro.baselines.copa import Copa
from repro.baselines.cubic import Cubic, Reno
from repro.core.feedback import PbeFeedback
from repro.core.sender import PbeSender

from .reference_cc import ReferenceBbr, ReferencePbeSender
from .reference_pacer import ReferenceSender
from .test_cc_block import _instrument
from .test_pacing_trains import END_US, _build, _run, assert_same_run

SCHEMES = {
    "cubic": Cubic,
    "reno": Reno,
    "copa": Copa,
    "bbr": lambda: Bbr(initial_rate_bps=6e6),
    "bbr_capped": lambda: Bbr(initial_rate_bps=6e6,
                              probe_rate_cap=lambda: 9e6),
    "pbe": lambda: PbeSender(initial_rate_bps=6e6),
}

#: What an ACK carries back to a PBE sender (other schemes ignore it).
FEEDBACK = {
    "none": None,
    "fresh": PbeFeedback.from_rates(12e6, 8e6, False),
    "fast": PbeFeedback.from_rates(40e6, 30e6, False),
    "internet": PbeFeedback.from_rates(12e6, 8e6, True),
    "activated": PbeFeedback.from_rates(20e6, 15e6, False, True),
    "stale": PbeFeedback.from_rates(12e6, 8e6, False, stale=True),
}


#: The oracle's controllers: BBR and PBE-CC fold one ACK at a time.
REFERENCE_SCHEMES = {
    **SCHEMES,
    "bbr": lambda: ReferenceBbr(initial_rate_bps=6e6),
    "bbr_capped": lambda: ReferenceBbr(initial_rate_bps=6e6,
                                       probe_rate_cap=lambda: 9e6),
    "pbe": lambda: ReferencePbeSender(initial_rate_bps=6e6),
}


def _real(flow):
    cc = SCHEMES[flow["scheme"]]()
    return cc, _instrument(cc)


def _reference(flow):
    cc = REFERENCE_SCHEMES[flow["scheme"]]()
    return cc, _instrument(cc)


TIMES = st.one_of(st.integers(0, END_US),
                  st.integers(0, END_US // 1_000).map(lambda k: k * 1_000))


@st.composite
def _scripts(draw):
    n_flows = draw(st.integers(1, 3))
    flows = [{
        "scheme": draw(st.sampled_from(sorted(SCHEMES))),
        "app_rate_bps": draw(st.sampled_from([None, None, 6e6])),
        "start_us": draw(st.sampled_from([0, 0, 1_000, 12_345])),
    } for _ in range(n_flows)]
    flow_ids = st.integers(0, n_flows - 1)
    feedback = st.sampled_from(sorted(FEEDBACK))
    ack = st.tuples(flow_ids, st.sampled_from([0, 0, 0, 1, 4]),
                    st.integers(1, 40), st.booleans(),
                    feedback.map(FEEDBACK.get))
    event = st.one_of(
        st.tuples(TIMES, st.just("ack"), ack),
        st.tuples(TIMES, st.just("ack"), ack),
        st.tuples(TIMES, st.just("app_rate"),
                  st.tuples(flow_ids, st.sampled_from([None, 3e6, 30e6]))),
        st.tuples(TIMES, st.just("toggle"), st.tuples(flow_ids)))
    events = draw(st.lists(event, max_size=40))
    # A steady ACK clock for most flows, so windows reopen, rates
    # settle, and a silence after it still ends in an RTO (or, for PBE,
    # trips the feedback watchdog at a poll).  Its feedback may change
    # once, mostly from fresh reports to something else.
    for clocked in range(n_flows):
        if not draw(st.integers(0, 3)):
            continue
        period = draw(st.sampled_from([1_000, 4_999, 5_000]))
        until = draw(st.integers(0, END_US))
        switch = draw(st.integers(0, END_US))
        first = draw(st.sampled_from(["fresh", "fresh", "fast"])
                     | feedback)
        then = draw(feedback)
        events += [(t, "ack", (clocked, 0, 8, True,
                               FEEDBACK[first if t < switch else then]))
                   for t in range(20_000, until, period)]
    return {"flows": flows, "events": events}


def _answers(flows):
    return [(cc.pacing_rate_bps(END_US), cc.cwnd_bits(END_US),
             cc.rate_valid_until_us(END_US)) for _, cc, _, _ in flows]


def check_script(script):
    """Engine ≡ per-packet oracle on one script (the property body)."""
    expected, ref_flows = _run(ReferenceSender, script, make_cc=_reference)
    got, flows = _run(Sender, script, make_cc=_real)
    assert_same_run(expected, got)
    assert _answers(flows) == _answers(ref_flows)


@settings(max_examples=300, deadline=None)
@given(_scripts())
def test_real_controllers_match_the_per_packet_pacer(script):
    check_script(script)


def test_the_schemes_declare_the_expected_horizons():
    """Callback-bound: CUBIC, Reno, Copa, uncapped BBR.  Not: a capped
    BBR (its cap is another object's state) and PBE (watchdog)."""
    bound = {name for name, make in SCHEMES.items()
             if make().rate_valid_until_us(5_000) == UNTIL_CALLBACK}
    assert bound == {"cubic", "reno", "copa", "bbr"}


def test_a_window_blocked_scheme_waits_for_its_ack():
    """Copa's 4-packet window fills; nothing but the RTO timer is queued
    until the ACKs, which re-arm it under fresh answers."""
    script = {"flows": [{"scheme": "copa", "app_rate_bps": None,
                         "start_us": 0}],
              "events": [(100_000, "ack", (0, 0, 2, True, None))]}
    sim, flows = _build(Sender, script, _real)
    sender, cc, log, wire = flows[0]
    sim.run(until_us=99_999)
    assert len(wire.sent) == 4 and not sender._pacing_active
    # Queued: the RTO timer and the script's ACK, no wake-up.
    assert sender._pace_event is None and len(sim._heap) - sim._cancelled == 2
    sim.run(until_us=150_000)
    assert [row[0] for row in log] == ["ack", "ack"]
    assert len(wire.sent) > 4 and sender._pace_event is None
    check_script(script)


def test_the_feedback_watchdog_trips_at_the_oracles_wake_up():
    """PBE reaches the wireless state on fresh reports, then hears no
    ACK for 400 ms.  Its answers hold only up to the watchdog deadline
    (last fresh report + 100 ms), so the engine keeps polling while
    blocked and re-asks at the first wake-up past it — the one at which
    the per-packet pacer falls back."""
    script = {"flows": [{"scheme": "pbe", "app_rate_bps": None,
                         "start_us": 0}],
              "events": [(t, "ack", (0, 0, 8, True, FEEDBACK["fresh"]))
                         for t in range(20_000, 300_000, 5_000)]}
    check_script(script)
    sim, flows = _build(Sender, script, _real)
    sim.run(until_us=END_US)
    changes = flows[0][1].state_changes
    assert [state for _, state in changes[:2]] == ["wireless", "fallback"]
    assert 395_000 < changes[1][0] < 396_000
