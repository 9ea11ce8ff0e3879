"""Pacing trains against the per-packet pacer they replaced.

``tests/reference_pacer.py`` is the old ``Sender._pace``/``_transmit``
verbatim: one heap event per data packet, the controller asked at every
one, and every ACK folded on its own (``tests/reference_transport.py``).
The train must put the same packets on the egress at the same instants
with the same marks, hand the controller the same callbacks in the same
order, and end with the same counters — whatever else shares the
simulator, wherever ``run(until_us)`` is cut, and whichever validity
horizon the controller reports.  Two rules make that true and are
checked here from the sender's side (``tests/test_sim.py`` checks them
on ``Simulator.advance_to`` itself): a queued event due at or before
the next send instant ends the train, and so does the run limit.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines.base import UNTIL_CALLBACK, CongestionControl, Sender
from repro.harness import Experiment
from repro.harness.fingerprint import digest_run, fingerprint_configs
from repro.net.link import Receiver
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS, US_PER_S

from .reference_pacer import ReferenceSender

END_US = 700_000  # long enough for an RTO (>= 200 ms of ACK silence)
FOREVER = 10**12


class ScriptedCc(CongestionControl):
    """Rate and window follow a script; every callback is logged.

    ``steps`` = ``[(from_us, rate_bps, cwnd_bits)]`` is a step function
    of the clock; each ACK additionally moves the rate to the next
    entry of ``ack_gains`` (so a script can invalidate a horizon it has
    just reported).  ``horizon`` picks what ``rate_valid_until_us``
    says: ``"default"`` (the base class's ``now``: re-ask for every
    packet), ``"step"`` (the instant before the next clock step — as
    far as the answers really hold, absent an ACK) or ``"callback"``
    (:data:`UNTIL_CALLBACK`; such a script has a single step, so only
    the ACK gains move the answers).
    """

    def __init__(self, steps, ack_gains, horizon):
        self.steps = steps
        self.ack_gains = ack_gains
        self.horizon = horizon
        self.acks_seen = 0
        self.log = []       # callbacks, in order
        self.queries = []   # (method, now_us), in order
        #: (asked_at, valid_until) of the answers the sender holds.
        self.held = None

    def _step(self, now_us):
        current = self.steps[0]
        for step in self.steps:
            if step[0] <= now_us:
                current = step
        return current

    def pacing_rate_bps(self, now_us):
        self.queries.append(("rate", now_us))
        gain = self.ack_gains[self.acks_seen % len(self.ack_gains)]
        self.held = (now_us, now_us)
        return self._step(now_us)[1] * gain

    def cwnd_bits(self, now_us):
        self.queries.append(("cwnd", now_us))
        return self._step(now_us)[2]

    def rate_valid_until_us(self, now_us):
        if self.horizon == "default":
            until = super().rate_valid_until_us(now_us)
        elif self.horizon == "callback":
            assert len(self.steps) == 1
            until = UNTIL_CALLBACK
        else:
            later = [s[0] for s in self.steps if s[0] > now_us]
            until = min(later) - 1 if later else FOREVER
        self.held = (now_us, until)
        return until

    def on_ack(self, ctx):
        self.held = None
        self.acks_seen += 1
        self.log.append(("ack", ctx.now_us, ctx.ack.seq, ctx.rtt_us,
                         ctx.delivery_rate_bps, ctx.newly_acked_bits,
                         ctx.inflight_bits, ctx.app_limited, ctx.srtt_us))

    def on_loss(self, now_us, lost_bits, inflight_bits):
        self.held = None
        self.log.append(("loss", now_us, lost_bits, inflight_bits))

    def on_timeout(self, now_us):
        self.held = None
        self.log.append(("timeout", now_us))


class Wire(Receiver):
    """Egress that records what was sent and keeps it for the ACK script.

    Given the flow's :class:`ScriptedCc`, it also checks each packet
    against the answers the sender held as it left, and logs the send
    among the controller's callbacks; ``cc`` is None only for a real
    controller, which keeps no record of its answers."""

    def __init__(self, cc):
        self.cc = cc
        self.sent = []
        self.unacked = []

    def receive(self, packet):
        cc = self.cc
        if cc is not None:
            # The sender never acts on an answer past its validity, nor
            # on one an ACK/loss/timeout callback has since invalidated.
            assert cc.held is not None
            asked_at, until = cc.held
            assert asked_at <= packet.sent_time_us <= max(asked_at, until)
            cc.log.append(("send", packet.seq, packet.sent_time_us))
        self.sent.append((packet.seq, packet.sent_time_us,
                          packet.app_limited, packet.delivered_at_send,
                          packet.delivered_time_at_send, packet.srtt_us))
        self.unacked.append(packet)


def _scripted(flow):
    cc = ScriptedCc(flow["steps"], flow["ack_gains"], flow["horizon"])
    return cc, cc.log


def _build(sender_cls, script, make_cc=_scripted):
    """One simulator, the script's senders and all its events queued.
    ``make_cc(flow)`` returns a flow's controller and its callback log."""
    sim = Simulator()
    flows = []
    for flow_id, flow in enumerate(script["flows"]):
        cc, log = make_cc(flow)
        wire = Wire(cc if isinstance(cc, ScriptedCc) else None)
        sender = sender_cls(sim, flow_id, cc, wire,
                            app_rate_bps=flow["app_rate_bps"])
        flows.append((sender, cc, log, wire))

    def ack(flow, lose, count, batched, feedback=None):
        sender, _, _, wire = flows[flow]
        del wire.unacked[:lose]  # never acknowledged: dup-ACK / RTO food
        acks = [p.make_ack(feedback) for p in wire.unacked[:count]]
        del wire.unacked[:count]
        if not acks:
            return
        if batched:
            sender.receive_batch(acks)
        else:
            for packet in acks:
                sender.receive(packet)

    def app_rate(flow, rate_bps):
        flows[flow][0].app_rate_bps = rate_bps

    def toggle(flow, start_only=False):
        sender = flows[flow][0]
        if not sender.running:
            sender.start()
        elif not start_only:
            sender.stop()

    for flow_id, flow in enumerate(script["flows"]):
        # Guarded: an earlier toggle may have started it already.
        sim.schedule_at(flow["start_us"], toggle, flow_id, True)
    actions = {"ack": ack, "app_rate": app_rate, "toggle": toggle,
               "noop": lambda: None}
    for time_us, kind, args in script["events"]:
        sim.schedule_at(time_us, actions[kind], *args)
    return sim, flows


def _observe(sim, flows):
    out = []
    for sender, _, log, wire in flows:
        counters = {name: getattr(sender, name) for name in (
            "next_seq", "inflight_bits", "highest_acked", "delivered_bits",
            "delivered_time_us", "srtt_us", "min_rtt_us", "sent_packets",
            "acked_packets", "lost_packets", "timeouts", "running",
            "_pacing_active")}
        # The RTO deadline is read only by a pending timer: a burst
        # that empties the window leaves it where the per-ACK body
        # would not, with no timer left to read it.
        counters["rto_due"] = (sender._rto_deadline_us
                               if sender._rto_event is not None else None)
        counters["outstanding"] = set(sender._outstanding)
        pace_due = (sender._pace_event.time
                    if sender._pace_event is not None else None)
        callback_bound = sender._held_until == UNTIL_CALLBACK
        out.append((wire.sent, log, counters, pace_due, callback_bound))
    return out, sim.now, len(sim._heap) - sim._cancelled


def _run(sender_cls, script, cuts=(), make_cc=_scripted):
    sim, flows = _build(sender_cls, script, make_cc)
    for cut_us in cuts:
        sim.run(until_us=cut_us)
        assert sim.now == cut_us
    sim.run(until_us=END_US)
    return _observe(sim, flows), flows


def assert_same_run(oracle, engine):
    """The engine's run (``_observe``) equals the per-packet oracle's:
    packets, callback log and counters per flow; the pending wake-up
    and the heap, except that a sender blocked under answers only a
    callback can change holds no wake-up where the oracle polls."""
    (expected, end, pending), (got, got_end, got_pending) = oracle, engine
    polls = 0
    for flow, (want, have) in enumerate(zip(expected, got)):
        sent, log, counters, pace_due, callback_bound = have
        assert sent == want[0], f"flow {flow}: packets differ"
        assert log == want[1], f"flow {flow}: callback log differs"
        assert counters == want[2], f"flow {flow}: counters differ"
        blocked = counters["running"] and not counters["_pacing_active"]
        if blocked and callback_bound:
            assert pace_due is None, f"flow {flow}: a blocked sender woke"
            polls += want[3] is not None
        else:
            assert pace_due == want[3], f"flow {flow}: wake-up differs"
    assert (got_end, got_pending) == (end, pending - polls)


RATES = [0.0, 1.2e6, 12e6, 12e6, 48e6, 96e6]   # 12 Mbit/s = 1 packet/ms
CWNDS = [None, None, 2 * MSS_BITS, 10 * MSS_BITS, 400 * MSS_BITS]
#: Times on the millisecond grid coincide with 12 Mbit/s send instants.
TIMES = st.one_of(st.integers(0, END_US),
                  st.integers(0, END_US // 1_000).map(lambda k: k * 1_000))


@st.composite
def _scripts(draw):
    n_flows = draw(st.integers(1, 3))
    flows = []
    for _ in range(n_flows):
        horizon = draw(st.sampled_from(["default", "step", "callback"]))
        n_steps = 1 if horizon == "callback" else draw(st.integers(1, 4))
        times = [0] + sorted(draw(TIMES) for _ in range(n_steps - 1))
        flows.append({
            "steps": [(t, draw(st.sampled_from(RATES)),
                       draw(st.sampled_from(CWNDS))) for t in times],
            "ack_gains": draw(st.sampled_from(
                [[1.0], [1.0, 0.5], [1.0, 2.0, 0.0, 1.0]])),
            "horizon": horizon,
            "app_rate_bps": draw(st.sampled_from([None, None, 6e6])),
            "start_us": draw(st.sampled_from([0, 0, 1_000, 12_345])),
        })
    flow_ids = st.integers(0, n_flows - 1)
    ack = st.tuples(flow_ids, st.sampled_from([0, 0, 0, 1, 4]),
                    st.integers(1, 40), st.booleans())
    event = st.one_of(
        st.tuples(TIMES, st.just("ack"), ack),
        st.tuples(TIMES, st.just("ack"), ack),
        st.tuples(TIMES, st.just("app_rate"),
                  st.tuples(flow_ids, st.sampled_from([None, 3e6, 30e6]))),
        st.tuples(TIMES, st.just("toggle"), st.tuples(flow_ids)),
        st.tuples(TIMES, st.just("noop"), st.just(())))
    events = draw(st.lists(event, max_size=40))
    # A steady ACK clock on top for some scripts, so windows reopen and
    # silences (no clock) still end in an RTO.
    if draw(st.booleans()):
        period = draw(st.sampled_from([1_000, 4_999, 5_000]))
        until = draw(st.integers(0, END_US))
        clocked = draw(flow_ids)
        events += [(t, "ack", (clocked, 0, 8, True))
                   for t in range(20_000, until, period)]
    cuts = sorted(draw(st.lists(TIMES, max_size=12)))
    return {"flows": flows, "events": events}, cuts


@settings(max_examples=120, deadline=None)
@given(_scripts())
def test_train_matches_per_packet_pacer(case):
    script, cuts = case
    expected, ref_flows = _run(ReferenceSender, script)
    got, flows = _run(Sender, script, cuts)
    assert_same_run(expected, got)
    for flow, spec in enumerate(script["flows"]):
        queries = flows[flow][1].queries
        ref_queries = ref_flows[flow][1].queries
        if spec["horizon"] == "default":
            # "Re-ask for every packet": the controller is asked exactly
            # as often, with exactly the same clock readings.
            assert queries == ref_queries
        else:
            assert len(queries) <= len(ref_queries)


def _lone_sender(rate_bps=12e6, horizon="step"):
    sim = Simulator()
    cc = ScriptedCc([(0, rate_bps, None)], [1.0], horizon)
    wire = Wire(cc)
    sender = Sender(sim, 0, cc, wire)
    sender.start()
    return sim, sender, cc, wire


def test_a_train_is_one_wake_up_when_nothing_else_is_queued():
    sim, sender, cc, wire = _lone_sender()
    sim.run(until_us=50_000)
    assert [t for _, t, *_ in wire.sent] == list(range(0, 50_001, 1_000))
    # One ask for the whole train, and one RTO event beside the pacer's.
    assert cc.queries == [("rate", 0), ("cwnd", 0)]
    assert len(sim._heap) - sim._cancelled == 2
    assert sender._pace_event.time == 51_000


def test_default_horizon_re_asks_for_every_packet():
    sim, sender, cc, wire = _lone_sender(horizon="default")
    sim.run(until_us=5_000)
    assert cc.queries == [(kind, t) for t in range(0, 5_001, 1_000)
                          for kind in ("rate", "cwnd")]


def test_rule_1_a_queued_event_at_the_send_instant_goes_first():
    """The tie: an event queued for the very instant of the next packet
    holds the lower sequence number, so it runs before that packet —
    here it retunes the sender, and the packet must see the new cap."""
    sim, sender, cc, wire = _lone_sender(rate_bps=48e6)

    def cap():
        sender.app_rate_bps = 12e6

    sim.schedule_at(3_000, cap)  # 48 Mbit/s: a packet every 250 us
    sim.run(until_us=6_000)
    times = [t for _, t, *_ in wire.sent]
    assert times[:13] == list(range(0, 3_001, 250))
    assert times[13:] == [4_000, 5_000, 6_000]
    marks = [limited for _, _, limited, *_ in wire.sent]
    assert marks == [False] * 12 + [True] * 4


def test_rule_2_the_run_limit_ends_a_train():
    sim, sender, cc, wire = _lone_sender()
    sim.run(until_us=2_500)
    assert (sim.now, len(wire.sent)) == (2_500, 3)
    # Between runs the outside world may act: the next packet, due at
    # 3 000, must be a queued event it can still pre-empt.
    assert sender._pace_event.time == 3_000
    sender.stop()
    sim.run(until_us=10_000)
    assert len(wire.sent) == 3


def _blocked_sender(horizon):
    """A 2-packet window, both packets out by 1 000 µs, no ACK yet."""
    sim = Simulator()
    cc = ScriptedCc([(0, 12e6, 2 * MSS_BITS)], [1.0, 0.5], horizon)
    wire = Wire(cc)
    sender = Sender(sim, 0, cc, wire)
    sender.start()
    sim.run(until_us=10_000)
    assert len(wire.sent) == 2 and not sender._pacing_active
    return sim, sender, cc, wire


def test_a_blocked_callback_bound_sender_queues_no_wake_up():
    sim, sender, cc, wire = _blocked_sender("callback")
    # Nothing but the RTO timer; the window was found full once.
    assert sender._pace_event is None and len(sim._heap) - sim._cancelled == 1
    assert cc.queries == [("rate", 0), ("cwnd", 0)]
    # An ACK re-arms at once, with fresh answers (the gain moved).
    sender.receive_batch([wire.unacked.pop(0).make_ack()])
    assert sender._pace_event.time == 10_000
    sim.run(until_us=20_000)
    assert [t for _, t, *_ in wire.sent] == [0, 1_000, 10_000]
    assert cc.queries[2:] == [("rate", 10_000), ("cwnd", 10_000)]
    assert sender._pace_event is None


def test_a_blocked_sender_with_a_finite_horizon_keeps_polling():
    sim, sender, cc, wire = _blocked_sender("step")
    assert sender._pace_event.time == 11_000
    # The poll chain re-checks the window; the answers are carried.
    assert cc.queries == [("rate", 0), ("cwnd", 0)]


def test_answers_are_carried_across_wake_ups_until_a_callback():
    """Events queued on every send instant break the train into one
    wake-up per packet: one ask serves them all, an ACK forces one."""
    sim, sender, cc, wire = _lone_sender(horizon="callback")
    for t in range(1_000, 6_001, 1_000):
        sim.schedule_at(t, lambda: None)
    sim.run(until_us=3_500)
    assert len(wire.sent) == 4 and cc.queries == [("rate", 0), ("cwnd", 0)]
    # Mid-gap: the ACK re-arms nothing; the next wake-up asks afresh.
    sender.receive_batch([wire.unacked.pop(0).make_ack()])
    sim.run(until_us=6_000)
    assert len(wire.sent) == 7
    assert cc.queries[2:] == [("rate", 4_000), ("cwnd", 4_000)]


def test_a_stopped_sender_holds_no_answers():
    """``stop`` drops the carried answers: restarted at the very instant
    they were asked, a default-horizon sender asks again, as the
    per-packet pacer does."""

    def queries(sender_cls):
        sim = Simulator()
        cc = ScriptedCc([(0, 0.0, None)], [1.0], "default")
        sender = sender_cls(sim, 0, cc, Wire(cc))
        sender.start()  # wakes at 0: zero rate, blocked

        def restart():
            sender.stop()
            sender.start()

        sim.schedule_at(0, restart)
        sim.run(until_us=2_500)
        return cc.queries

    assert queries(Sender) == queries(ReferenceSender) == [
        ("rate", 0), ("rate", 0), ("rate", 1_000), ("rate", 2_000)]


def test_chunked_run_digests_like_one_call():
    """1 000 uneven ``run(until_us)`` slices of a packet-dominated
    experiment: every slice boundary cuts a train short."""
    scenario, specs = fingerprint_configs(1.0)["idle_3cc_pbe"]

    def digest(cuts):
        experiment = Experiment(scenario)
        handles = [experiment.add_flow(spec) for spec in specs]
        for cut_us in cuts:
            experiment.sim.run(until_us=cut_us)
        return digest_run(experiment, handles, experiment.run())

    rng = random.Random(13)
    cuts = sorted(rng.randrange(int(scenario.duration_s * US_PER_S))
                  for _ in range(1_000))
    assert digest(cuts) == digest(())
