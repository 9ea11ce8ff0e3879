"""Tests for base-station downlink queues and transport-block packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell.queues import PROTOCOL_OVERHEAD, DownlinkQueue, TransportBlock
from repro.net.packet import Packet

from . import reference_queue


def _tb(seq=0, bits=0):
    return TransportBlock(seq=seq, rnti=1, cell_id=0, subframe=0,
                          bits=bits, n_prbs=0, mcs=10, spatial_streams=1)


def _packet(seq, bits=12_000):
    return Packet(flow_id=1, seq=seq, size_bits=bits)


def test_protocol_overhead_is_papers_gamma():
    assert PROTOCOL_OVERHEAD == pytest.approx(0.068)


def test_push_and_backlog():
    q = DownlinkQueue()
    assert q.push(_packet(0))
    assert q.push(_packet(1))
    assert len(q) == 2
    assert q.backlog_bits == 24_000
    assert not q.empty


def test_droptail():
    q = DownlinkQueue(capacity_packets=2)
    assert q.push(_packet(0))
    assert q.push(_packet(1))
    assert not q.push(_packet(2))
    assert q.dropped == 1
    assert len(q) == 2


def test_capacity_validation():
    with pytest.raises(ValueError):
        DownlinkQueue(capacity_packets=0)


def test_pull_whole_packets():
    q = DownlinkQueue()
    q.push(_packet(0))
    q.push(_packet(1))
    tb = _tb()
    taken = q.pull(24_000, tb)
    assert taken == 24_000
    assert [p.seq for p in tb.completes] == [0, 1]
    assert q.empty
    assert q.backlog_bits == 0


def test_pull_splits_packet_across_blocks():
    q = DownlinkQueue()
    q.push(_packet(0, bits=12_000))
    tb1, tb2 = _tb(0), _tb(1)
    assert q.pull(5_000, tb1) == 5_000
    assert tb1.completes == []          # packet not finished yet
    assert tb1.partial.seq == 0
    assert q.backlog_bits == 7_000
    assert q.pull(50_000, tb2) == 7_000  # only the remainder available
    assert [p.seq for p in tb2.completes] == [0]
    assert tb2.partial is None


def test_pull_from_empty_queue():
    q = DownlinkQueue()
    assert q.pull(10_000, _tb()) == 0


def test_pull_rejects_negative():
    q = DownlinkQueue()
    with pytest.raises(ValueError):
        q.pull(-1, _tb())


def test_partial_is_the_packet_cut_short():
    q = DownlinkQueue()
    q.push(_packet(0, bits=10_000))
    q.push(_packet(1, bits=10_000))
    tb = _tb()
    q.pull(15_000, tb)  # all of packet 0, half of packet 1
    assert [p.seq for p in tb.completes] == [0]
    assert tb.partial.seq == 1


# ---------------------------------------------------------------------------
# Differential: the queue against the [packet, remaining]-pair queue it
# replaced (tests/reference_queue.py), on random schedules
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 3_000)),
        st.tuples(st.just("pull"), st.integers(0, 7_000))),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 6), ops=_OPS)
def test_queue_matches_the_pair_queue_on_random_schedules(capacity, ops):
    """Equal ``completes`` / return value, ``partial`` = the oracle's
    ``touches`` minus its ``completes`` (nothing or one packet), and
    equal ``backlog_bits`` / ``dropped`` / ``enqueued`` / ``len`` /
    ``empty`` after every call: zero-size packets, zero-bit pulls, pulls
    that stop mid-packet (several in a row on one head) and droptail
    included."""
    queue = DownlinkQueue(capacity)
    oracle = reference_queue.DownlinkQueue(capacity)
    seq = 0
    for op, bits in ops:
        if op == "push":
            packet = _packet(seq, bits)
            seq += 1
            assert queue.push(packet) == oracle.push(packet)
        else:
            tb, oracle_tb = _tb(), reference_queue.Block()
            assert queue.pull(bits, tb) == oracle.pull(bits, oracle_tb)
            assert tb.completes == oracle_tb.completes
            cut_short = [p for p in oracle_tb.touches
                         if p not in oracle_tb.completes]
            assert cut_short == ([] if tb.partial is None
                                 else [tb.partial])
        assert queue.backlog_bits == oracle.backlog_bits
        assert queue.dropped == oracle.dropped
        assert queue.enqueued == oracle.enqueued
        assert len(queue) == len(oracle)
        assert queue.empty == oracle.empty
