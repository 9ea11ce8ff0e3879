"""The burst ACK clock against the per-ACK body it replaced, statefully.

``Sender.receive_batch`` is the only ACK path the engine runs; the
per-ACK body it replaced is kept verbatim in
``tests/reference_transport.py``.  A hypothesis state machine drives
one of each side by side — pacing on a window, ACK bursts of any size
with duplicates, reorderings, spurious ACKs, another flow's ACKs and
data packets mixed in, holes that trip duplicate-ACK loss detection,
silences long enough for a retransmission timeout, ``stop`` and
``start`` — and after every step requires the same outstanding set, the
same estimators and counters, the same packets on the wire and the same
controller callbacks in the same order.  The engine side takes each
burst whole or, drawn per burst, as bursts of one through ``receive``.
The oracle keeps its own ``{seq: (bits, sent)}`` map, send-order deque,
loss scan, timeout and counters, so the engine's set, scan cursor and
derived ``sent_packets``/``acked_packets`` are checked against code
they do not share.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.baselines.base import CongestionControl, Sender
from repro.net.link import Receiver
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS

from .reference_pacer import ReferenceSender

FLOW = 1


class LoggingCc(CongestionControl):
    """A window and a rate; each ACK steps the rate through ``gains``.
    Every callback is logged with its whole payload."""

    def __init__(self, rate_bps, cwnd_packets, gains):
        self.rate_bps = rate_bps
        self.cwnd = cwnd_packets * MSS_BITS
        self.gains = gains
        self.acks = 0
        self.log = []

    def pacing_rate_bps(self, now_us):
        return self.rate_bps * self.gains[self.acks % len(self.gains)]

    def cwnd_bits(self, now_us):
        return self.cwnd

    def on_ack(self, ctx):
        self.acks += 1
        self.log.append(("ack", ctx.now_us, ctx.ack.seq, ctx.rtt_us,
                         ctx.delivery_rate_bps, ctx.newly_acked_bits,
                         ctx.inflight_bits, ctx.app_limited, ctx.srtt_us))

    def on_loss(self, now_us, lost_bits, inflight_bits):
        self.log.append(("loss", now_us, lost_bits, inflight_bits))

    def on_timeout(self, now_us):
        self.log.append(("timeout", now_us))


class Wire(Receiver):
    """Egress: logs what was sent, keeps it for the ACK script."""

    def __init__(self):
        self.sent = []
        self.unacked = []

    def receive(self, packet):
        self.sent.append((packet.seq, packet.sent_time_us,
                          packet.app_limited, packet.delivered_at_send,
                          packet.delivered_time_at_send))
        self.unacked.append(packet)


class Side:
    def __init__(self, sender_cls, rate_bps, cwnd_packets, gains):
        self.sim = Simulator()
        self.cc = LoggingCc(rate_bps, cwnd_packets, gains)
        self.wire = Wire()
        self.sender = sender_cls(self.sim, FLOW, self.cc, self.wire)

    def observe(self):
        sender = self.sender
        state = {name: getattr(sender, name) for name in (
            "next_seq", "inflight_bits", "highest_acked", "delivered_bits",
            "delivered_time_us", "srtt_us", "min_rtt_us", "sent_packets",
            "acked_packets", "lost_packets", "timeouts", "running",
            "_pacing_active")}
        state["outstanding"] = set(sender._outstanding)
        # Read only by a pending timer (see test_pacing_trains).
        state["rto_due"] = (sender._rto_deadline_us
                            if sender._rto_event is not None else None)
        state["pace_due"] = (sender._pace_event.time
                             if sender._pace_event is not None else None)
        return (state, self.cc.log, self.wire.sent, self.sim.now,
                self.sim.pending_events)


#: One burst item: an ACK of the unacked packet at an index (mod the
#: window), the same from another flow, a data packet carrying that
#: packet's numbers, or an ACK of a sequence number never sent.
_ITEMS = st.one_of(
    st.tuples(st.sampled_from(["ack", "ack", "ack", "foreign", "data"]),
              st.integers(-40, 40)),
    st.tuples(st.just("spurious"), st.just(0)))


class SenderPair(RuleBasedStateMachine):
    """The engine's :class:`Sender` and the per-ACK oracle, in lockstep."""

    @initialize(rate_bps=st.sampled_from([1.2e6, 12e6, 48e6]),
                cwnd_packets=st.sampled_from([2, 6, 40]),
                gains=st.sampled_from([[1.0], [1.0, 0.5], [1.0, 2.0, 0.0]]))
    def setup(self, rate_bps, cwnd_packets, gains):
        self.engine = Side(Sender, rate_bps, cwnd_packets, gains)
        self.oracle = Side(ReferenceSender, rate_bps, cwnd_packets, gains)
        self.sides = (self.engine, self.oracle)
        for side in self.sides:
            side.sender.start()

    @rule(us=st.one_of(st.integers(1, 3_000), st.integers(150_000, 450_000)))
    def advance(self, us):
        """Pacing (and, after a long silence, the RTO) runs."""
        for side in self.sides:
            side.sim.run(until_us=side.sim.now + us)

    @rule(count=st.integers(1, 3))
    def lose(self, count):
        """Data packets lost on the way: never acknowledged."""
        for side in self.sides:
            del side.wire.unacked[:count]

    @rule(items=st.lists(_ITEMS, min_size=1, max_size=25),
          one_by_one=st.booleans())
    def ack_burst(self, items, one_by_one):
        for side in self.sides:
            unacked = side.wire.unacked
            burst, acked = [], set()
            for kind, index in items:
                if kind == "spurious":
                    burst.append(Packet(FLOW, side.sender.next_seq + 7,
                                        is_ack=True, sent_time_us=0))
                elif unacked:
                    index %= len(unacked)
                    ack = unacked[index].make_ack()
                    if kind == "foreign":
                        ack.flow_id = FLOW + 1
                    elif kind == "data":
                        ack.is_ack = False
                    else:
                        acked.add(index)
                    burst.append(ack)   # repeats are duplicates
            side.wire.unacked = [packet for i, packet in enumerate(unacked)
                                 if i not in acked]
            if side is self.engine and one_by_one:
                for packet in burst:
                    side.sender.receive(packet)
            else:
                side.sender.receive_batch(burst)

    @rule()
    def stop(self):
        for side in self.sides:
            side.sender.stop()

    @precondition(lambda self: not self.engine.sender.running)
    @rule()
    def start(self):
        for side in self.sides:
            side.sender.start()

    @invariant()
    def agree(self):
        assert self.engine.observe() == self.oracle.observe()
        for side in self.sides:
            sender = side.sender
            outstanding = len(sender._outstanding)
            # Every packet sent is acked, lost or outstanding, once.
            assert sender.next_seq == (sender.acked_packets
                                       + sender.lost_packets + outstanding)
            assert sender.inflight_bits == sender.mss_bits * outstanding
        # The oracle's send-order head is its lowest outstanding seq
        # (next_seq when none is): the engine's scan cursor never
        # passes an outstanding packet.
        order = self.oracle.sender._send_order
        head = order[0] if order else self.oracle.sender.next_seq
        assert self.engine.sender._scan_from <= head


SenderPair.TestCase.settings = settings(max_examples=150,
                                        stateful_step_count=40,
                                        deadline=None)
test_burst_ack_clock_matches_the_per_ack_body = SenderPair.TestCase


def test_the_machine_reaches_every_path():
    """The drawn space is not vacuous: one scripted run through the
    machine's rules sees duplicate-ACK losses, a timeout, spurious and
    foreign ACKs skipped, and a restart."""
    machine = SenderPair()
    machine.setup(rate_bps=12e6, cwnd_packets=40, gains=[1.0])
    machine.advance(12_000)
    machine.ack_burst([("ack", 4), ("ack", 5), ("ack", 6), ("ack", 6),
                       ("foreign", 7), ("data", 8), ("spurious", 0)],
                      one_by_one=False)
    machine.agree()
    machine.advance(400_000)
    machine.agree()
    machine.stop()
    machine.start()
    machine.advance(3_000)
    # The two newest packets, and one the timeout declared lost.
    machine.ack_burst([("ack", -1), ("ack", -2), ("ack", 0)],
                      one_by_one=True)
    machine.agree()
    sender, log = machine.engine.sender, machine.engine.cc.log
    assert {"ack", "loss", "timeout"} <= {entry[0] for entry in log}
    assert sender.lost_packets > sender.timeouts > 0
    # Counted: 3 + 2.  Not: the duplicate, the other flow's ACK, the
    # data packet, the never-sent sequence number, the late ACK.
    assert sender.acked_packets == 5
