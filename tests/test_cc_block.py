"""Congestion control under ACK bursts: engine-vs-per-ACK CC equality.

The engine hands each uplink flush to the controller as one burst.  BBR
and PBE-CC fold it in their one burst body (the §4.1 PBE loop, BBR's
filter/state machine with its filter state hoisted into locals); CUBIC
and Copa loop their one per-ACK body.  The contract is *decision*
equality with the per-ACK reference — for BBR and PBE-CC the frozen
per-ACK bodies of ``tests/reference_cc.py``: the controller must see
the identical callback stream (every ``on_ack`` context and every
``on_loss``, in order) and end in the identical observable state.  Raw
filter deques are allowed to differ by dominated same-timestamp entries
(the burst body inserts only the burst's extreme — future-equivalent by
the monotonic-deque argument), so filters are compared through
``(window_us, get())``.

The matrix runs every scheme against clean, lossy, reordered and
duplicate-ACK streams; a scripted PBE client drives the sender through
all five §4.1 states (including the feedback watchdog's FALLBACK and
its resync).  A final test pins the transport under an ACK-impairing
:class:`~repro.faults.pipe.ImpairedPipe`: every ACK that survives the
injector must still reach the sender in a batch, byte-identical to the
per-ACK reference (``tests/reference_engine.py``).

Also here: the FlowStats packed-column (``array('q')``) equivalence
check against a plain-list reference implementation.
"""

from __future__ import annotations

from array import array
from unittest import mock

import pytest

from repro.baselines.base import AckingReceiver, Sender
from repro.baselines.bbr import Bbr
from repro.baselines.copa import Copa
from repro.baselines.cubic import Cubic
from repro.baselines.windowed import _WindowedExtreme
from repro.core import sender as sender_module
from repro.core.feedback import PbeFeedback
from repro.core.sender import PbeSender
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.fingerprint import run_fingerprint
from repro.net.flow import FlowStats
from repro.net.link import BatchingPipe, Link, Receiver
from repro.net.sim import Simulator
from repro.net.units import us_from_seconds
from repro.perf import PerfCounters

from .delay_pipe import DelayPipe
from .reference_cc import ReferenceBbr, ReferencePbeSender
from .reference_engine import ReferencePipe, reference_engine
from .reference_pacer import ReferenceSender
from .reference_transport import ReferenceAckingReceiver

DURATION_S = 0.6


# ---------------------------------------------------------------------------
# CC instrumentation: record the exact callback stream the scheme sees
# ---------------------------------------------------------------------------

def _ctx_row(ctx):
    return (ctx.now_us, ctx.ack.seq, ctx.rtt_us,
            ctx.delivery_rate_bps, ctx.newly_acked_bits,
            ctx.inflight_bits, ctx.app_limited, ctx.srtt_us)


def _instrument(cc):
    """Log every on_ack/on_ack_block/on_loss/on_timeout the transport
    delivers, flattening blocks so scalar and batched logs compare
    elementwise.  A callback the controller makes to its own other ACK
    entry point (a burst looping ``self.on_ack``, or ``on_ack`` as a
    burst of one) must not double-log, hence the depth guard."""
    rows = []
    depth = [0]
    real_ack = cc.on_ack
    real_block = cc.on_ack_block
    real_loss = cc.on_loss
    real_timeout = cc.on_timeout

    def on_ack(ctx):
        if not depth[0]:
            rows.append(("ack",) + _ctx_row(ctx))
        depth[0] += 1
        try:
            real_ack(ctx)
        finally:
            depth[0] -= 1

    def on_ack_block(contexts):
        if not depth[0]:
            for ctx in contexts:
                rows.append(("ack",) + _ctx_row(ctx))
        depth[0] += 1
        try:
            real_block(contexts)
        finally:
            depth[0] -= 1

    def on_loss(now_us, lost_bits, inflight_bits):
        rows.append(("loss", now_us, lost_bits, inflight_bits))
        real_loss(now_us, lost_bits, inflight_bits)

    def on_timeout(now_us):
        rows.append(("timeout", now_us))
        real_timeout(now_us)

    cc.on_ack = on_ack
    cc.on_ack_block = on_ack_block
    cc.on_loss = on_loss
    cc.on_timeout = on_timeout
    return rows


def _cc_state(cc):
    """Observable controller state: every attribute, with windowed
    filters reduced to ``(window_us, get())`` and the embedded BBR
    recursed into."""
    out = {}
    for key, value in vars(cc).items():
        if isinstance(value, _WindowedExtreme):
            out[key] = ("filter", value.window_us, value.get())
        elif isinstance(value, (Bbr, PbeSender)):
            out[key] = _cc_state(value)
        elif isinstance(value, list):
            out[key] = tuple(value)
        elif callable(value):
            continue  # the instrumentation wrappers themselves
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Deterministic ACK-stream impairments (no RNG: both engines must see
# the identical packet sequence)
# ---------------------------------------------------------------------------

class SeqDropper(Receiver):
    """Drop every data packet whose seq hits a fixed residue class."""

    def __init__(self, sink, modulus=29, residue=13):
        self.sink = sink
        self.modulus = modulus
        self.residue = residue

    def receive(self, packet):
        if not packet.is_ack and packet.seq % self.modulus == self.residue:
            return
        self.sink.receive(packet)


class AckDuplicator(Receiver):
    """Deliver every Nth ACK twice (spurious duplicate at the sender)."""

    def __init__(self, sink, every=17):
        self.sink = sink
        self.every = every
        self.count = 0

    def receive(self, packet):
        self.sink.receive(packet)
        self.count += 1
        if self.count % self.every == 0:
            self.sink.receive(packet)


class PairSwapper(Receiver):
    """Hold every Nth ACK and release it after its successor."""

    def __init__(self, sink, every=13):
        self.sink = sink
        self.every = every
        self.count = 0
        self.held = None

    def receive(self, packet):
        if self.held is not None:
            held, self.held = self.held, None
            self.sink.receive(packet)
            self.sink.receive(held)
            return
        self.count += 1
        if self.count % self.every == 0:
            self.held = packet
        else:
            self.sink.receive(packet)


class ScriptedPbeClient(AckingReceiver):
    """PBE feedback on a fixed clock schedule (no monitor needed).

    Six 50 ms phases walk the sender through every §4.1 transition:
    fresh wireless reports, a carrier-activation restart, an Internet
    bottleneck (DRAIN → INTERNET and back), then 150 ms without fresh
    feedback (stale / lost / stale) to trip the watchdog into FALLBACK
    before phase 0 resyncs it.
    """

    def _feedback(self, seq):
        phase = (self.sim.now // 50_000) % 6
        if phase == 4 and seq % 3:
            return None  # feedback lost in the network
        stale = phase in (3, 4, 5)
        return PbeFeedback.from_rates(
            target_rate_bps=8e6 + (seq % 7) * 1e6,
            fair_rate_bps=6e6 + (seq % 5) * 1e6,
            internet_bottleneck=(phase == 2),
            carrier_activated=(phase == 1 and seq % 37 == 0),
            stale=stale,
        )

    def receive_block(self, packets):
        now = self.sim.now
        acks = []
        for packet in packets:
            if packet.is_ack or packet.flow_id != self.flow_id:
                continue
            self.stats.record(now, packet.size_bits,
                              now - packet.sent_time_us)
            acks.append(packet.make_ack(self._feedback(packet.seq)))
        if acks:
            self.uplink.receive_block(acks)


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------

def pbe_at_6mbps(cls=PbeSender):
    """``cls()`` with PBE's initial rate patched to the 6 Mbit/s this
    matrix's BBR starts at."""
    with mock.patch.object(sender_module, "INITIAL_RATE_BPS", 6e6):
        return cls()


_SCHEMES = {
    "pbe": pbe_at_6mbps,
    "bbr": lambda: Bbr(initial_rate_bps=6e6),
    "cubic": Cubic,
    "copa": Copa,
}

#: The reference side: BBR and PBE-CC as their per-ACK bodies.
_REFERENCE_SCHEMES = {
    **_SCHEMES,
    "pbe": lambda: pbe_at_6mbps(ReferencePbeSender),
    "bbr": lambda: ReferenceBbr(initial_rate_bps=6e6),
}

_STREAMS = ("clean", "lossy", "reordered", "dup")


def _run(scheme, stream, batched):
    """``batched=False`` delivers every ACK as its own event, to the
    per-ACK sender and the per-ACK controller."""
    sim = Simulator()
    cc = (_SCHEMES if batched else _REFERENCE_SCHEMES)[scheme]()
    rows = _instrument(cc)
    sender = (Sender if batched else ReferenceSender)(
        sim, flow_id=1, cc=cc, egress=None)
    uplink = (BatchingPipe if batched else ReferencePipe)(
        sim, sender, delay_us=2_000, batch_interval_us=5_000)
    ack_path = uplink
    if stream == "dup":
        ack_path = AckDuplicator(uplink)
    elif stream == "reordered":
        ack_path = PairSwapper(uplink)
    if scheme == "pbe":
        client_cls = ScriptedPbeClient
    else:
        client_cls = AckingReceiver if batched else ReferenceAckingReceiver
    receiver = client_cls(sim, 1, ack_path)
    last_mile = DelayPipe(sim, receiver, delay_us=2_000)
    # A 16 Mbit/s bottleneck with a shallow queue: rate-based schemes
    # converge (instead of racing an infinite-bandwidth pipe) and
    # loss-based ones see real queue drops.
    data_path = Link(sim, last_mile, rate_bps=16e6, delay_us=4_000,
                     queue_packets=40)
    if stream == "lossy":
        data_path = SeqDropper(data_path)
    sender.egress = data_path
    sender.start()
    end = us_from_seconds(DURATION_S)
    sim.run(until_us=end)
    decisions = (cc.pacing_rate_bps(end), cc.cwnd_bits(end))
    return rows, _cc_state(cc), decisions, sender


@pytest.mark.parametrize("stream", _STREAMS)
@pytest.mark.parametrize("scheme", sorted(_SCHEMES))
def test_block_path_matches_scalar_callback_log(scheme, stream):
    b_rows, b_state, b_decisions, b_sender = _run(scheme, stream, True)
    s_rows, s_state, s_decisions, s_sender = _run(scheme, stream, False)
    assert len(b_rows) > 50  # the stream actually exercised the CC
    assert b_rows == s_rows
    assert b_state == s_state
    assert b_decisions == s_decisions
    assert (b_sender.acked_packets, b_sender.lost_packets,
            b_sender.timeouts) == (s_sender.acked_packets,
                                   s_sender.lost_packets,
                                   s_sender.timeouts)


def test_lossy_and_dup_streams_reach_the_loss_and_spurious_paths():
    rows, _, _, sender = _run("cubic", "lossy", True)
    assert any(row[0] == "loss" for row in rows)
    assert sender.lost_packets > 0
    rows, _, _, sender = _run("cubic", "dup", True)
    acked = [row[2] for row in rows if row[0] == "ack"]
    assert len(acked) == sender.acked_packets  # spurious dups filtered


def test_scripted_pbe_client_covers_all_sender_states():
    _, state, _, _ = _run("pbe", "clean", True)
    visited = {name for _, name in state["state_changes"]}
    assert {"wireless", "drain", "internet", "fallback"} <= visited


# ---------------------------------------------------------------------------
# Batched transport under an ACK-impairing pipe (demotion rule removed)
# ---------------------------------------------------------------------------

ACK_FAULTS = {"seed": 5, "ack_loss_rate": 0.03, "ack_dup_rate": 0.02,
              "ack_reorder_rate": 0.02}


def _faulted_scenario():
    return Scenario(name="ccb-faulted", aggregated_cells=2,
                    mean_sinr_db=18.0, duration_s=DURATION_S, seed=77,
                    busy=True, background_users=2)


def test_impaired_uplink_runs_batched_and_matches_scalar():
    perf = PerfCounters()
    experiment = Experiment(_faulted_scenario())
    experiment.sim.perf = experiment.network.perf = perf
    handle = experiment.add_flow(FlowSpec(scheme="pbe",
                                          faults=ACK_FAULTS))
    experiment.run()
    assert handle.impaired_pipe is not None
    assert 0 < handle.uplink.forwarded == perf.acks_batched

    batched = run_fingerprint(_faulted_scenario(),
                              [FlowSpec(scheme="pbe", faults=ACK_FAULTS)])
    with reference_engine():
        scalar = run_fingerprint(
            _faulted_scenario(), [FlowSpec(scheme="pbe", faults=ACK_FAULTS)])
    assert batched == scalar


# ---------------------------------------------------------------------------
# FlowStats packed columns vs the list reference
# ---------------------------------------------------------------------------

def test_flow_stats_columns_are_packed_arrays():
    stats = FlowStats(1)
    assert isinstance(stats.arrival_us, array)
    assert stats.arrival_us.typecode == "q"
    assert stats.size_bits.typecode == "q"
    assert stats.delay_us.typecode == "q"


def test_flow_stats_matches_list_reference():
    class ListStats(FlowStats):
        def __init__(self, flow_id):
            super().__init__(flow_id)
            self.arrival_us = []
            self.size_bits = []
            self.delay_us = []

    packed, ref = FlowStats(1), ListStats(1)
    records = [(i * 997, 12_000 + (i % 3) * 8, 15_000 + (i * 37) % 9_000)
               for i in range(500)]
    for row in records:
        packed.record(*row)
        ref.record(*row)
    assert list(packed.arrival_us) == ref.arrival_us
    assert list(packed.size_bits) == ref.size_bits
    assert list(packed.delay_us) == ref.delay_us
    assert packed.packets == ref.packets
    assert packed.total_bits == ref.total_bits
    assert packed.average_throughput_bps() == ref.average_throughput_bps()
    assert list(packed.delay_us) == ref.delay_us
    assert tuple(packed.arrival_us) == tuple(ref.arrival_us)  # digest view
