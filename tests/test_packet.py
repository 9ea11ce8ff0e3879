"""Tests for packet and ACK construction."""

from repro.baselines.base import AckContext, CongestionControl, Sender
from repro.core.client import PbeClient
from repro.core.feedback import PbeFeedback
from repro.monitor.pbe import PbeMonitor
from repro.net.link import PacketSink
from repro.net.packet import ACK_BITS, Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS
from repro.phy.dci import DciMessage, SubframeRecord

from .reference_pacer import ReferenceSender


class _FixedRate(CongestionControl):
    """A fixed pacing rate, no window; logs contexts and losses."""

    def __init__(self, rate_bps):
        self.rate_bps = rate_bps
        self.contexts = []
        self.losses = []

    def pacing_rate_bps(self, now_us):
        return self.rate_bps

    def on_ack(self, ctx):
        self.contexts.append(ctx)

    def on_loss(self, now_us, lost_bits, inflight_bits):
        self.losses.append((len(self.contexts), lost_bits, inflight_bits))


def test_data_packet_defaults():
    p = Packet(flow_id=1, seq=7)
    assert p.size_bits == MSS_BITS
    assert not p.is_ack
    assert p.srtt_us == 0


def test_a_packet_has_ten_slots():
    """An ACK's ``seq`` is the seq it acks, the receiver's FlowStats
    logs arrivals: no slot holds either fact a second time."""
    assert Packet.__slots__ == (
        "flow_id", "seq", "size_bits", "is_ack", "sent_time_us",
        "feedback", "delivered_at_send", "delivered_time_at_send",
        "app_limited", "srtt_us")


def test_make_ack_echoes_identity_and_timestamps():
    p = Packet(flow_id=3, seq=42, sent_time_us=123_456)
    p.delivered_at_send = 999
    p.delivered_time_at_send = 111
    p.app_limited = True
    ack = p.make_ack(feedback={"x": 1})
    assert ack.is_ack
    assert ack.flow_id == 3
    assert ack.seq == 42
    assert ack.sent_time_us == 123_456  # echoed for RTT computation
    assert ack.feedback == {"x": 1}
    assert ack.delivered_at_send == 999
    assert ack.delivered_time_at_send == 111
    assert ack.app_limited
    assert ack.size_bits == ACK_BITS


def _same_slots(built, expected, slots):
    # getattr on a slot a build site forgot to fill raises.
    for name in slots:
        assert getattr(built, name) == getattr(expected, name), name


def _paced_train():
    """The packets of one real ``Sender._pace`` train (app-limited, with
    delivery state and an srtt to stamp), and the sender."""
    sim = Simulator()
    wire = PacketSink(sim)
    sender = Sender(sim, 3, _FixedRate(12e6), wire, app_rate_bps=1e6)
    sender.delivered_bits = 5 * MSS_BITS
    sender.delivered_time_us = 111
    sender.srtt_us = 40_000
    sender.start()
    sim.run(until_us=50_000)
    return wire.packets, sender


def _client_acks(data):
    """The ACKs ``PbeClient.receive_block`` builds for one burst."""
    sim = Simulator()
    monitor = PbeMonitor(100, {0: 100}, primary_cell=0,
                         own_rate_hint=lambda: (1000, 1e-6))
    for subframe in range(20):
        record = SubframeRecord(subframe, 0, 100)
        record.messages.append(DciMessage(subframe, 0, 100, 50, 12, 2,
                                          tbs_bits=50_000))
        monitor.decoder_callback(0)(record)
    sink = PacketSink(sim)
    client = PbeClient(sim, 3, sink, monitor)
    sim.run(until_us=200_000)
    client.receive_block(data)
    return sink.packets


def test_make_ack_equals_the_constructor_built_ack_slot_for_slot():
    """``make_ack``, the pacer's data packets and the PBE client's ACKs
    fill the slots themselves instead of going through ``Packet(...)``;
    iterating ``__slots__`` means a slot added later cannot be forgotten
    at any of the three build sites (an unset slot raises
    AttributeError)."""
    data = Packet(flow_id=3, seq=42, size_bits=9_000, sent_time_us=123_456,
                  delivered_at_send=999, delivered_time_at_send=111,
                  app_limited=True, srtt_us=40_000)
    feedback = object()
    for kwargs in ({}, {"feedback": feedback},
                   {"feedback": feedback, "size_bits": 512}):
        ack = data.make_ack(**kwargs)
        built = Packet(3, 42, kwargs.get("size_bits", ACK_BITS), is_ack=True,
                       sent_time_us=123_456,
                       feedback=kwargs.get("feedback"),
                       delivered_at_send=999, delivered_time_at_send=111,
                       app_limited=True)
        _same_slots(ack, built, Packet.__slots__)

    train, _ = _paced_train()
    assert len(train) >= 4  # one train: 12 ms gaps, nothing in between
    for seq, packet in enumerate(train):
        _same_slots(packet, Packet(
            3, seq, MSS_BITS, is_ack=False, sent_time_us=seq * 12_000,
            feedback=None, delivered_at_send=5 * MSS_BITS,
            delivered_time_at_send=111, app_limited=True, srtt_us=40_000),
            Packet.__slots__)

    acks = _client_acks([data, Packet(3, 43, sent_time_us=150_000)])
    assert [ack.seq for ack in acks] == [42, 43]
    for ack, sent in zip(acks, (data, Packet(3, 43))):
        assert isinstance(ack.feedback, PbeFeedback)
        _same_slots(ack, Packet(
            3, ack.seq, ACK_BITS, is_ack=True,
            sent_time_us=ack.sent_time_us, feedback=ack.feedback,
            delivered_at_send=sent.delivered_at_send,
            delivered_time_at_send=sent.delivered_time_at_send,
            app_limited=sent.app_limited), Packet.__slots__)
    assert [ack.sent_time_us for ack in acks] == [123_456, 150_000]


def test_the_ack_clock_builds_contexts_equal_to_the_keyword_built_ones():
    """``Sender.receive_batch`` fills each ``AckContext``'s slots itself
    instead of calling the generated ``__init__``: slot for slot it
    equals the keyword-built context of the per-ACK oracle
    (``tests/reference_transport.py``) fed the same ACKs, so a field
    added to ``AckContext`` later cannot be forgotten there."""
    train, engine = _paced_train()
    oracle_cc = _FixedRate(12e6)
    oracle = ReferenceSender(Simulator(), 3, oracle_cc, PacketSink(),
                             app_rate_bps=1e6)
    oracle.delivered_bits = 5 * MSS_BITS
    oracle.delivered_time_us = 111
    oracle.srtt_us = 40_000
    oracle.start()
    # Seq 1 never acked: the ACK of seq 4 declares it lost, between the
    # burst's third and fourth contexts.
    acks = [train[seq].make_ack() for seq in (0, 2, 3, 4)]
    for sender in (engine, oracle):
        sender.sim.run(until_us=90_000)
        sender.receive_batch(acks)
    built, expected = engine.cc.contexts, oracle_cc.contexts
    assert len(built) == len(expected) == 4
    assert engine.cc.losses == oracle_cc.losses == [(3, MSS_BITS,
                                                     3 * MSS_BITS)]
    for ctx, keyword_built in zip(built, expected):
        assert type(ctx) is AckContext
        _same_slots(ctx, keyword_built, AckContext.__slots__)


def test_constructor_takes_the_delivery_bookkeeping():
    p = Packet(1, 0, MSS_BITS, False, 5, None, 100, 200, True, 40_000)
    assert (p.delivered_at_send, p.delivered_time_at_send,
            p.app_limited, p.srtt_us) == (100, 200, True, 40_000)


def test_ack_is_small():
    assert ACK_BITS < MSS_BITS / 10


def test_srtt_us_rides_the_data_packet_only():
    """The sender's srtt is for the client; an ACK echoes none."""
    data = Packet(1, 0, srtt_us=40_000)
    assert data.srtt_us == 40_000
    assert data.make_ack().srtt_us == 0


def test_repr_mentions_kind():
    assert "DATA" in repr(Packet(1, 0))
    assert "ACK" in repr(Packet(1, 0).make_ack())
