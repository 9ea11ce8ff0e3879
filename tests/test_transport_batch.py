"""Per-burst transport core: burst/per-ACK byte identity.

The uplink grant cycle hands the sender its ACKs in natural bursts;
the uplink delivers each burst as one event carrying the held list to
:meth:`Sender.receive_batch`.  The contract is the repo's usual one:
byte-identical to the event-per-ACK reference (``tests/reference_engine.py``
with the per-ACK bodies of ``tests/reference_transport.py``).  These
tests pin the flush, the burst loop (including losses, duplicate and
spurious ACKs, and the on_loss/on_ack interleaving), that ACK-impaired
flows are batched like any other, checkpoint/restore with a flushed
burst held mid-flight, and the srtt dedup between the transport layer
and PBE's control.  ``tests/test_sender_stateful.py`` drives the burst
loop against the per-ACK oracle under adversarial ACK streams.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import (
    AckingReceiver,
    CongestionControl,
    Sender,
)
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.checkpoint import CheckpointConfig, CheckpointManager
from repro.harness.fingerprint import (
    digest_run,
    fingerprint_configs,
    run_fingerprint,
)
from repro.net.link import BatchingPipe, Receiver
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import us_from_seconds
from repro.perf import PerfCounters

from .delay_pipe import DelayPipe
from .reference_engine import ReferencePipe, reference_engine
from .reference_pacer import ReferenceSender
from .reference_transport import ReferenceAckingReceiver

DURATION_S = 0.4


# ---------------------------------------------------------------------------
# The flush: one event, the held list itself
# ---------------------------------------------------------------------------

def _ack_for(seq, flow_id=1, sent_time_us=100):
    data = Packet(flow_id=flow_id, seq=seq, size_bits=12_000,
                  sent_time_us=sent_time_us)
    data.delivered_at_send = seq * 12_000
    data.delivered_time_at_send = sent_time_us
    data.app_limited = bool(seq % 2)
    return data.make_ack()


class BurstLog(Receiver):
    """Sink recording each ``receive_batch`` call's list."""

    def __init__(self):
        self.bursts = []

    def receive(self, packet):  # pragma: no cover - never per packet
        raise AssertionError("a flush delivers the burst whole")

    def receive_batch(self, packets):
        self.bursts.append(packets)


def test_flush_hands_the_held_burst_to_receive_batch():
    sim = Simulator()
    sink = BurstLog()
    pipe = BatchingPipe(sim, sink, delay_us=1_000, batch_interval_us=5_000)
    acks = [_ack_for(seq) for seq in range(5)]
    pipe.receive_block(acks[:2])
    pipe.receive(acks[2])
    pipe.receive_block(acks[3:])
    held = pipe._held
    assert held == acks and held is not acks     # the pipe's own list
    sim.run()
    # Nothing staged, nothing copied: the held list is the burst.
    assert len(sink.bursts) == 1 and sink.bursts[0] is held
    assert pipe._held == [] and (pipe.batches, pipe.forwarded) == (1, 5)


# ---------------------------------------------------------------------------
# Sender block loop == scalar loop, byte for byte
# ---------------------------------------------------------------------------

class RecordingCc(CongestionControl):
    """Fixed-rate controller logging every callback with its payload."""

    name = "recording"

    def __init__(self, rate_bps=40e6, cwnd_bits_value=None):
        self.rate_bps = rate_bps
        self.cwnd = cwnd_bits_value
        self.calls = []

    def on_ack(self, ctx):
        self.calls.append((
            "ack", ctx.ack.seq, ctx.now_us, ctx.rtt_us,
            ctx.delivery_rate_bps, ctx.newly_acked_bits,
            ctx.inflight_bits, ctx.app_limited, ctx.srtt_us))

    def on_loss(self, now_us, lost_bits, inflight_bits):
        self.calls.append(("loss", now_us, lost_bits, inflight_bits))

    def on_timeout(self, now_us):
        self.calls.append(("timeout", now_us))

    def pacing_rate_bps(self, now_us):
        return self.rate_bps

    def cwnd_bits(self, now_us):
        return self.cwnd


class SeqDropper(Receiver):
    """Deterministically drop data packets to provoke dup-ACK losses."""

    def __init__(self, sink, drop_residues=(3, 4, 5), modulus=17):
        self.sink = sink
        self.drop_residues = drop_residues
        self.modulus = modulus
        self.dropped = 0

    def receive(self, packet):
        if not packet.is_ack and packet.seq % self.modulus \
                in self.drop_residues:
            self.dropped += 1
            return
        self.sink.receive(packet)


class AckDuplicator(Receiver):
    """Duplicate every Nth ACK so the sender sees spurious ACKs."""

    def __init__(self, sim, sink, every=13):
        self.sim = sim
        self.sink = sink
        self.every = every
        self.seen = 0

    def receive(self, packet):
        self.sink.receive(packet)
        self.seen += 1
        if packet.is_ack and self.seen % self.every == 0:
            dup = Packet(packet.flow_id, packet.seq,
                         size_bits=packet.size_bits, is_ack=True,
                         sent_time_us=packet.sent_time_us)
            dup.delivered_at_send = packet.delivered_at_send
            dup.delivered_time_at_send = packet.delivered_time_at_send
            dup.app_limited = packet.app_limited
            self.sink.receive(dup)


def _run_transport(batched, with_losses=True, with_dups=True,
                   duration_s=0.25):
    """One sender/receiver loop through the uplink, or (``batched=False``)
    through the event-per-ACK reference pipe and per-ACK endpoints."""
    sim = Simulator()
    cc = RecordingCc()
    sender = (Sender if batched else ReferenceSender)(
        sim, flow_id=1, cc=cc, egress=None)
    uplink = (BatchingPipe if batched else ReferencePipe)(
        sim, sender, delay_us=7_000, batch_interval_us=5_000)
    ack_path = AckDuplicator(sim, uplink) if with_dups else uplink
    receiver = (AckingReceiver if batched else ReferenceAckingReceiver)(
        sim, 1, ack_path)
    downlink = DelayPipe(sim, receiver, delay_us=6_000)
    sender.egress = SeqDropper(downlink) if with_losses else downlink
    sender.start()
    sim.schedule(us_from_seconds(duration_s), sender.stop)
    sim.run(until_us=us_from_seconds(duration_s) + 100_000)
    return sim, sender, cc, receiver


def _sender_state(sender):
    return {
        "next_seq": sender.next_seq,
        "inflight_bits": sender.inflight_bits,
        "highest_acked": sender.highest_acked,
        "delivered_bits": sender.delivered_bits,
        "delivered_time_us": sender.delivered_time_us,
        "srtt_us": sender.srtt_us,
        "min_rtt_us": sender.min_rtt_us,
        "sent": sender.sent_packets,
        "acked": sender.acked_packets,
        "lost": sender.lost_packets,
        "timeouts": sender.timeouts,
        "outstanding": set(sender._outstanding),
    }


@pytest.mark.parametrize("with_losses,with_dups", [
    (False, False), (True, False), (True, True)])
def test_block_loop_matches_scalar_exactly(with_losses, with_dups):
    _, s_sender, s_cc, s_recv = _run_transport(
        False, with_losses, with_dups)
    _, b_sender, b_cc, b_recv = _run_transport(
        True, with_losses, with_dups)
    # The CC call log is the strongest oracle: same callbacks, same
    # order, same payloads (including the on_loss interleaving and the
    # srtt carried in each context).
    assert b_cc.calls == s_cc.calls
    assert _sender_state(b_sender) == _sender_state(s_sender)
    assert list(b_recv.stats.arrival_us) == list(s_recv.stats.arrival_us)
    assert list(b_recv.stats.delay_us) == list(s_recv.stats.delay_us)
    if with_losses:
        assert s_sender.lost_packets > 0          # the oracle saw losses
    if with_dups:
        assert len(s_cc.calls) < s_sender.sent_packets + 50


def test_block_loop_counts_batches():
    perf = PerfCounters()
    sim = Simulator()
    sim.perf = perf
    cc = RecordingCc()
    sender = Sender(sim, flow_id=1, cc=cc, egress=None)
    uplink = BatchingPipe(sim, sender, delay_us=7_000,
                          batch_interval_us=5_000)
    receiver = AckingReceiver(sim, 1, uplink)
    sender.egress = DelayPipe(sim, receiver, delay_us=6_000)
    sender.start()
    sim.schedule(us_from_seconds(0.1), sender.stop)
    sim.run(until_us=us_from_seconds(0.15))
    assert perf.ack_batches > 0
    assert perf.acks_batched > perf.ack_batches   # real multi-ACK bursts


# ---------------------------------------------------------------------------
# ACK-impaired flows in the harness
# ---------------------------------------------------------------------------

def _scenario(seed=31, **kw):
    kw.setdefault("busy", True)
    kw.setdefault("background_users", 2)
    return Scenario(name=f"tb-{seed}", aggregated_cells=2,
                    mean_sinr_db=18.0, duration_s=DURATION_S,
                    seed=seed, **kw)


ACK_FAULTS = {"seed": 9, "ack_loss_rate": 0.02, "ack_dup_rate": 0.01}


def test_ack_impaired_flows_stay_on_the_batched_transport():
    # The injector draws per packet in front of the uplink, so every
    # ACK either flow's uplink forwards rides in a burst: nothing is
    # demoted to per-ACK events.
    perf = PerfCounters()
    experiment = Experiment(_scenario())
    experiment.sim.perf = experiment.network.perf = perf
    impaired = experiment.add_flow(FlowSpec(scheme="pbe",
                                            faults=ACK_FAULTS))
    clean = experiment.add_flow(FlowSpec(scheme="pbe", rnti=101))
    experiment.run()
    assert impaired.impaired_pipe is not None
    assert impaired.uplink.forwarded > 0 and clean.uplink.forwarded > 0
    assert (perf.acks_batched
            == impaired.uplink.forwarded + clean.uplink.forwarded)
    assert perf.ack_batches == impaired.uplink.batches + clean.uplink.batches


def test_ack_impaired_config_batched_matches_scalar():
    specs = [FlowSpec(scheme="pbe", faults=ACK_FAULTS)]
    batched = run_fingerprint(_scenario(seed=33), specs)
    specs = [FlowSpec(scheme="pbe", faults=ACK_FAULTS)]
    with reference_engine():
        scalar = run_fingerprint(_scenario(seed=33), specs)
    assert batched == scalar


# ---------------------------------------------------------------------------
# Checkpoint/restore with a flushed burst held mid-flight
# ---------------------------------------------------------------------------

def _bursts_in_flight(sim):
    return [event for _, _, event in sim._heap
            if not event.cancelled
            and getattr(event.callback, "__name__", "") == "_deliver"]


def test_checkpoint_restores_a_held_ack_batch(tmp_path):
    name = "busy_2cc_pbe"
    scenario, specs = fingerprint_configs(DURATION_S)[name]
    straight = run_fingerprint(scenario, specs)

    # Snapshot every subframe with no wall throttle: the 20 ms uplink
    # propagation guarantees flushed bursts span snapshot boundaries
    # once traffic is flowing.
    scenario, specs = fingerprint_configs(DURATION_S)[name]
    experiment = Experiment(scenario)
    for spec in specs:
        experiment.add_flow(spec)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1, wall_budget=None))
    manager.run_to(experiment, us_from_seconds(DURATION_S / 2))
    assert manager.saved >= 1
    assert _bursts_in_flight(experiment.sim)      # held at the "crash"

    scenario, specs = fingerprint_configs(DURATION_S)[name]
    resumed = Experiment(scenario)
    handles = [resumed.add_flow(spec) for spec in specs]
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1, wall_budget=None))
    restored_at = manager.try_restore(resumed)
    assert restored_at is not None
    held = _bursts_in_flight(resumed.sim)
    assert held                                   # decoded back as one event
    for event in held:
        (burst,) = event.args
        assert event.callback.__self__ is handles[0].uplink
        assert type(burst) is list and len(burst) >= 1
        assert all(ack.is_ack for ack in burst)
    results = resumed.run(checkpoint=manager)
    assert digest_run(resumed, handles, results) == straight


# ---------------------------------------------------------------------------
# srtt dedup: transport filter is the only filter
# ---------------------------------------------------------------------------

def test_pbe_srtt_agrees_with_transport_srtt():
    experiment = Experiment(_scenario(seed=35))
    handle = experiment.add_flow(FlowSpec(scheme="pbe"))
    experiment.run()
    assert handle.sender.srtt_us > 0
    assert handle.cc._srtt_us == handle.sender.srtt_us
