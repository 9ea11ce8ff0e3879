"""Tests for the fault-injection subsystem (repro.faults)."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.feedback import PbeFeedback
from repro.faults import FaultSpec, ImpairedPipe, LossyDecoder, derived_rng
from repro.monitor.decoder import ControlChannelDecoder
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.phy.dci import DciMessage, SubframeRecord


def _record(subframe, cell=0, n_msgs=2, total_prbs=50, n_prbs=5):
    rec = SubframeRecord(subframe, cell, total_prbs)
    for i in range(n_msgs):
        rec.messages.append(DciMessage(subframe, cell, 100 + i, n_prbs,
                                       10, 1, tbs_bits=5_000))
    return rec


def _lossy(spec, cell=0):
    got = []
    decoder = ControlChannelDecoder(cell, got.append)
    return LossyDecoder(decoder, spec), got


def _ack(seq, feedback=None):
    pkt = Packet(1, seq, is_ack=True)
    pkt.feedback = feedback
    return pkt


class _Sink:
    def __init__(self, sim=None):
        self.sim = sim
        self.packets = []

    def receive(self, packet):
        now = self.sim.now if self.sim is not None else 0
        self.packets.append((now, packet))


# ----------------------------------------------------------------------
# FaultSpec
# ----------------------------------------------------------------------
def test_spec_rejects_out_of_range_rates():
    with pytest.raises(ValueError):
        FaultSpec(dci_miss_rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec(ack_loss_rate=-0.1)
    with pytest.raises(ValueError):
        FaultSpec(outage_mean_subframes=0)
    with pytest.raises(ValueError):
        FaultSpec(outages=[(-1, 10)])
    with pytest.raises(ValueError):
        FaultSpec(ack_reorder_delay_us=-1)


def test_spec_roundtrips_through_json_dict():
    spec = FaultSpec(seed=3, dci_miss_rate=0.2, outages=[[100, 50]],
                     ack_loss_rate=0.01, feedback_corrupt_rate=0.005)
    rebuilt = FaultSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.outages == ((100, 50),)


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fault fields"):
        FaultSpec.from_dict({"dci_miss_rate": 0.1, "bogus": 1})


@pytest.mark.parametrize("field,value", [
    ("outage_mean_subframes", float("nan")),   # an outage never ended
    ("outage_mean_subframes", float("inf")),
    ("ack_reorder_delay_us", 1.5),             # a fractional clock time
    ("ack_reorder_delay_us", float("nan")),
    ("outages", [[1.7, 2]]),                   # was truncated to (1, 2)
    ("outages", [[1, 2, 3]]),
    ("outages", 5),
    ("dci_miss_rate", "0.1"),                  # was a TypeError
    ("ack_loss_rate", float("nan")),
    ("ack_dup_rate", True),
    ("seed", "x"),                             # was accepted
    ("seed", 1.0),
])
def test_spec_rejects_a_bad_value_naming_its_field(field, value):
    with pytest.raises(ValueError, match=field):
        FaultSpec.from_dict({field: value})


_FAULT_FIELDS = [f.name for f in dataclasses.fields(FaultSpec)]
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**6), st.floats(),
    st.floats(0, 1), st.text(max_size=4),
    st.lists(st.lists(st.one_of(st.integers(-5, 100),
                                st.floats(-5, 100)), max_size=3),
             max_size=3))


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(_FAULT_FIELDS + ["bogus"]),
                       _ANY_VALUE, max_size=6))
def test_spec_loader_fuzz_round_trips_or_names_the_field(data):
    """Hostile JSON: either a spec that survives ``to_dict`` → JSON →
    ``from_dict`` unchanged, or a ``ValueError`` naming a field given."""
    try:
        spec = FaultSpec.from_dict(data)
    except ValueError as error:
        assert [name for name in data if name in str(error)], error
        return
    assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_impairment_properties():
    assert not FaultSpec().impairs_decoder
    assert not FaultSpec().impairs_pipe
    assert FaultSpec(dci_miss_rate=0.1).impairs_decoder
    assert FaultSpec(outages=[(0, 10)]).impairs_decoder
    assert not FaultSpec(outages=[(0, 0)]).impairs_decoder
    assert FaultSpec(ack_dup_rate=0.1).impairs_pipe
    assert not FaultSpec(ack_dup_rate=0.1).impairs_decoder


def test_derived_rng_streams_are_independent_and_stable():
    a1 = derived_rng(7, "dci", 0)
    a2 = derived_rng(7, "dci", 0)
    b = derived_rng(7, "dci", 1)
    c = derived_rng(8, "dci", 0)
    seq_a1 = [a1.random() for _ in range(50)]
    assert seq_a1 == [a2.random() for _ in range(50)]
    assert seq_a1 != [b.random() for _ in range(50)]
    assert seq_a1 != [c.random() for _ in range(50)]


# ----------------------------------------------------------------------
# LossyDecoder
# ----------------------------------------------------------------------
def test_lossy_decoder_noop_forwards_identical_objects():
    lossy, got = _lossy(FaultSpec())
    records = [_record(sf) for sf in range(10)]
    for rec in records:
        lossy.on_subframe(rec)
    assert len(got) == 10
    for original, forwarded in zip(records, got):
        assert forwarded is original  # byte-identical stream
    assert lossy.stats()["records_dropped"] == 0


def test_lossy_decoder_misses_messages():
    lossy, got = _lossy(FaultSpec(seed=1, dci_miss_rate=1.0))
    lossy.on_subframe(_record(0, n_msgs=4))
    assert len(got) == 1
    assert got[0].messages == []
    assert lossy.messages_missed == 4


def test_lossy_decoder_partial_miss_is_deterministic():
    spec = FaultSpec(seed=5, dci_miss_rate=0.5)
    survivors = []
    for _ in range(2):
        lossy, got = _lossy(spec)
        for sf in range(200):
            lossy.on_subframe(_record(sf, n_msgs=4))
        survivors.append([len(r.messages) for r in got])
    assert survivors[0] == survivors[1]
    assert 0 < sum(survivors[0]) < 800  # actually dropped some, not all


def test_lossy_decoder_scheduled_outage_drops_whole_subframes():
    lossy, got = _lossy(FaultSpec(outages=[(10, 5)]))
    for sf in range(20):
        lossy.on_subframe(_record(sf))
    assert [r.subframe for r in got] == [sf for sf in range(20)
                                         if not 10 <= sf < 15]
    assert lossy.outage_subframes == 5
    assert lossy.records_dropped == 5


def test_lossy_decoder_burst_outages_follow_mean_length():
    spec = FaultSpec(seed=2, outage_enter_rate=0.02,
                     outage_mean_subframes=10.0)
    lossy, got = _lossy(spec)
    n = 20_000
    for sf in range(n):
        lossy.on_subframe(_record(sf))
    # Stationary bad-state fraction = enter / (enter + exit) ~ 1/6.
    fraction = lossy.outage_subframes / n
    assert 0.10 < fraction < 0.25


def test_lossy_decoder_ghosts_never_over_allocate():
    # idle_prbs raises on over-allocation, so consuming every forwarded
    # record proves ghosts stay within the subframe's free PRBs.
    spec = FaultSpec(seed=9, dci_false_rate=1.0)
    lossy, got = _lossy(spec)
    for sf in range(300):
        # 48/50 PRBs already taken: at most 2 left for the ghost.
        lossy.on_subframe(_record(sf, n_msgs=8, n_prbs=6))
    assert lossy.false_positives == 300
    for rec in got:
        assert rec.idle_prbs >= 0
        assert any(m.rnti >= 60_000 for m in rec.messages)


def test_lossy_decoder_no_ghost_when_subframe_is_full():
    spec = FaultSpec(seed=9, dci_false_rate=1.0)
    lossy, got = _lossy(spec)
    lossy.on_subframe(_record(0, n_msgs=10, n_prbs=5))  # 50/50 PRBs
    assert lossy.false_positives == 0
    assert got[0].messages == got[0].messages  # forwarded, unmodified
    assert len(got[0].messages) == 10


# ----------------------------------------------------------------------
# ImpairedPipe
# ----------------------------------------------------------------------
def test_impaired_pipe_noop_is_synchronous_and_identical():
    sim = Simulator()
    sink = _Sink(sim)
    pipe = ImpairedPipe(sim, sink, FaultSpec())
    packets = [_ack(seq) for seq in range(10)]
    for pkt in packets:
        pipe.receive(pkt)
    # Delivered inline (no scheduled events) and object-identical.
    assert [p for _, p in sink.packets] == packets
    assert all(got is sent for (_, got), sent
               in zip(sink.packets, packets))
    assert len(sim._heap) == 0


def test_impaired_pipe_drops_everything_at_rate_one():
    sim = Simulator()
    sink = _Sink(sim)
    pipe = ImpairedPipe(sim, sink, FaultSpec(ack_loss_rate=1.0))
    for seq in range(20):
        pipe.receive(_ack(seq))
    assert sink.packets == []
    assert pipe.stats()["dropped"] == 20


def test_impaired_pipe_duplicates():
    sim = Simulator()
    sink = _Sink(sim)
    pipe = ImpairedPipe(sim, sink, FaultSpec(ack_dup_rate=1.0))
    pipe.receive(_ack(0))
    assert len(sink.packets) == 2
    assert sink.packets[0][1] is sink.packets[1][1]


def test_impaired_pipe_reorders_via_delay():
    sim = Simulator()
    sink = _Sink(sim)
    spec = FaultSpec(seed=4, ack_reorder_rate=0.5,
                     ack_reorder_delay_us=5_000)
    pipe = ImpairedPipe(sim, sink, spec)

    def send(seq):
        pipe.receive(_ack(seq))

    for seq in range(40):
        sim.schedule_at(seq * 100, send, seq)
    sim.run()
    assert len(sink.packets) == 40
    seqs = [p.seq for _, p in sink.packets]
    assert sorted(seqs) == list(range(40))
    assert seqs != list(range(40))  # at least one packet overtaken
    assert pipe.reordered > 0


def test_impaired_pipe_corrupts_feedback_without_mutating_original():
    sim = Simulator()
    sink = _Sink(sim)
    spec = FaultSpec(seed=11, feedback_corrupt_rate=1.0)
    pipe = ImpairedPipe(sim, sink, spec)
    original_fb = PbeFeedback.from_rates(50e6, 60e6, False)
    for seq in range(50):
        pipe.receive(_ack(seq, feedback=original_fb))
    assert pipe.corrupted == 50
    erased = flipped = 0
    for _, pkt in sink.packets:
        if pkt.feedback is None:
            erased += 1
        else:
            assert pkt.feedback.target_interval_us \
                != original_fb.target_interval_us
            # The saturating decode path must absorb any 32-bit value.
            assert pkt.feedback.target_rate_bps > 0
            flipped += 1
    assert erased > 0 and flipped > 0
    assert original_fb.target_interval_us \
        == PbeFeedback.from_rates(50e6, 60e6, False).target_interval_us


def test_impaired_pipe_ignores_packets_without_pbe_feedback():
    sim = Simulator()
    sink = _Sink(sim)
    pipe = ImpairedPipe(sim, sink, FaultSpec(feedback_corrupt_rate=1.0))
    pkt = _ack(0)
    pipe.receive(pkt)
    assert pipe.corrupted == 0
    assert sink.packets[0][1] is pkt


# ----------------------------------------------------------------------
# Cross-process determinism
# ----------------------------------------------------------------------
_SCHEDULE_SNIPPET = """
import json, sys
from repro.faults import FaultSpec, LossyDecoder
from repro.monitor.decoder import ControlChannelDecoder
from repro.phy.dci import DciMessage, SubframeRecord

spec = FaultSpec.from_dict(json.loads(sys.argv[1]))
got = []
lossy = LossyDecoder(ControlChannelDecoder(0, got.append), spec)
for sf in range(500):
    rec = SubframeRecord(sf, 0, 50)
    for i in range(4):
        rec.messages.append(
            DciMessage(sf, 0, 100 + i, 5, 10, 1, tbs_bits=5_000))
    lossy.on_subframe(rec)
print(json.dumps([[r.subframe, len(r.messages)] for r in got]))
"""


def test_fault_schedule_identical_across_processes():
    import json

    spec = FaultSpec(seed=42, dci_miss_rate=0.3, dci_false_rate=0.05,
                     outage_enter_rate=0.01, outage_mean_subframes=12.0)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _SCHEDULE_SNIPPET,
             json.dumps(spec.to_dict())],
            capture_output=True, text=True, env=env, check=True)
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]

    lossy, got = _lossy(spec)
    for sf in range(500):
        lossy.on_subframe(_record(sf, n_msgs=4))
    local = json.dumps([[r.subframe, len(r.messages)] for r in got])
    assert local == outputs[0]
