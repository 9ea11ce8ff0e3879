"""Tests for packet and ACK construction."""

from repro.net.packet import ACK_BITS, Packet
from repro.net.units import MSS_BITS


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


def test_make_ack_equals_the_constructor_built_ack_slot_for_slot():
    """``make_ack`` fills the slots itself instead of going through
    ``Packet(...)``; iterating ``__slots__`` means a slot added later
    cannot be forgotten there (an unset slot raises AttributeError)."""
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
        for name in Packet.__slots__:
            assert getattr(ack, name) == getattr(built, name), name


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
