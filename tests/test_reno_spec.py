"""``baselines.cubic.Reno`` driven through a real :class:`Sender`.

The specification is the textbook Reno a reference implementation
reports (SNIPPETS.md, Snippet 2): slow start adds one MSS per ACK,
congestion avoidance one MSS per RTT (``MSS / cwnd`` per ACK), three
duplicate ACKs halve the window, a timeout collapses it.  Here the
losses are scripted on a real path — sender, 10 ms each way, an ACKing
receiver — so the duplicate-ACK detection, the loss/ACK interleaving and
the RTO are the transport's own, not callbacks called by hand.

Where ``Reno`` departs from the snippet the test names the departure and
holds ``Reno`` to what it does: no fast-recovery inflation (the window
halves to ``ssthresh``, not ``ssthresh + 3`` MSS), at most one halving
per smoothed RTT (NewReno's one reduction per window of data), and a
timeout takes the window to 2 MSS, not 1.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import DUPACK_THRESHOLD, AckingReceiver, Sender
from repro.baselines.cubic import INITIAL_CWND, Reno
from repro.net.link import DelayPipe, Receiver
from repro.net.sim import Simulator

#: Data packets lost on the way: a hole, a second one too soon after it
#: to halve again, a third one much later.
LOST = (60, 64, 200)
#: Everything sent in this interval is lost: the ACK clock stops and the
#: retransmission timeout fires.
BLACKOUT_US = (400_000, 450_000)


class TracedReno(Reno):
    """Logs ``(kind, now, seq, cwnd before, cwnd after, ssthresh)``."""

    def __init__(self):
        super().__init__()
        self.trace = []

    def on_ack(self, ctx):
        before = self.cwnd
        super().on_ack(ctx)
        self.trace.append(("ack", ctx.now_us, ctx.ack.seq, before,
                           self.cwnd, self.ssthresh))

    def on_loss(self, now_us, lost_bits, inflight_bits):
        before = self.cwnd
        super().on_loss(now_us, lost_bits, inflight_bits)
        self.trace.append(("loss", now_us, None, before, self.cwnd,
                           self.ssthresh))

    def on_timeout(self, now_us):
        before = self.cwnd
        super().on_timeout(now_us)
        self.trace.append(("timeout", now_us, None, before, self.cwnd,
                           self.ssthresh))


class ScriptedLoss(Receiver):
    def __init__(self, sim, sink):
        self.sim = sim
        self.sink = sink

    def receive(self, packet):
        start, end = BLACKOUT_US
        if packet.seq in LOST or start <= self.sim.now < end:
            return
        self.sink.receive(packet)


@pytest.fixture(scope="module")
def run():
    sim = Simulator()
    reno = TracedReno()
    sender = Sender(sim, 1, reno, None)
    receiver = AckingReceiver(sim, 1, DelayPipe(sim, sender, 10_000))
    sender.egress = ScriptedLoss(sim, DelayPipe(sim, receiver, 10_000))
    sender.start()
    sim.run(until_us=1_000_000)
    return sender, reno.trace


def _events(trace, kind):
    return [(i, entry) for i, entry in enumerate(trace) if entry[0] == kind]


def test_slow_start_adds_one_mss_per_ack(run):
    _, trace = run
    first_loss = _events(trace, "loss")[0][0]
    acks = trace[:first_loss]
    assert len(acks) > 50 and all(kind == "ack" for kind, *_ in acks)
    assert acks[0][3] == INITIAL_CWND
    for _, _, _, before, after, ssthresh in acks:
        assert ssthresh == float("inf")
        assert after == before + 1.0


def test_a_loss_found_three_acks_later_halves_the_window(run):
    _, trace = run
    (i, loss), _, _ = _events(trace, "loss")
    # The hole at 60 is declared lost on the ACK of 60 + 3: the
    # controller hears of it before that ACK, after every earlier one.
    assert [seq for _, _, seq, *_ in trace[i - 2:i]] == [61, 62]
    assert trace[i + 1][:3] == ("ack", loss[1], LOST[0] + DUPACK_THRESHOLD)
    _, _, _, before, after, ssthresh = loss
    # Departure from the snippet: no +3 MSS fast-recovery inflation.
    assert after == ssthresh == before / 2


def test_at_most_one_halving_per_srtt(run):
    _, trace = run
    (_, first), (_, second), (_, third) = _events(trace, "loss")
    # The second hole is found within one srtt of the first: ignored.
    assert second[1] - first[1] < 20_000
    assert second[3] == second[4] and second[5] == first[5]
    # The third, long after, halves again.
    assert third[1] - second[1] > 50_000
    assert third[4] == third[5] == third[3] / 2


def test_congestion_avoidance_adds_one_mss_per_rtt(run):
    _, trace = run
    (i, loss), (j, _), _ = _events(trace, "loss")
    between = [entry for entry in trace[i + 1:j + 40] if entry[0] == "ack"]
    for _, _, _, before, after, ssthresh in between:
        assert before >= ssthresh
        assert after == before + 1.0 / before     # MSS * MSS / cwnd
    # One window's worth of ACKs (one RTT of them) adds about one MSS.
    window = round(between[0][3])
    grown = between[window - 1][4] - between[0][3]
    assert 0.95 < grown <= 1.0


def test_a_timeout_takes_the_window_to_two_and_restarts_slow_start(run):
    sender, trace = run
    ((i, timeout),) = _events(trace, "timeout")
    assert sender.timeouts == 1
    assert BLACKOUT_US[0] < timeout[1] - 200_000 < BLACKOUT_US[1]
    _, _, _, before, after, ssthresh = timeout
    # Departure from the snippet: 2 MSS, not 1.
    assert after == 2.0 and ssthresh == before / 2
    restart = trace[i + 1:]
    slow = [entry for entry in restart if entry[3] < ssthresh]
    assert [entry[4] - entry[3] for entry in slow] == [1.0] * len(slow)
    assert slow[-1][4] >= ssthresh                 # then avoidance again
    following = restart[len(slow)]
    assert following[4] == following[3] + 1.0 / following[3]
