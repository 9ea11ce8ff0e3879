"""Tests for HARQ constants and the reordering buffer (paper Figure 3)."""

from hypothesis import given, strategies as st

from repro.phy.harq import (
    MAX_RETRANSMISSIONS,
    RETX_DELAY_SUBFRAMES,
    HarqProcess,
    ReorderingBuffer,
)


def test_paper_constants():
    # §3: retransmission after eight subframes, at most three times.
    assert RETX_DELAY_SUBFRAMES == 8
    assert MAX_RETRANSMISSIONS == 3


def test_in_order_passthrough():
    buf = ReorderingBuffer()
    assert buf.insert(0, "a") == ["a"]
    assert buf.insert(1, "b") == ["b"]
    assert buf._expected == 2


def test_out_of_order_blocks_until_gap_fills():
    buf = ReorderingBuffer()
    assert buf.insert(1, "b") == []
    assert buf.insert(2, "c") == []
    assert len(buf._held) == 2
    assert buf.insert(0, "a") == ["a", "b", "c"]
    assert len(buf._held) == 0


def test_abandon_releases_blocked_blocks():
    buf = ReorderingBuffer()
    buf.insert(1, "b")
    buf.insert(2, "c")
    assert buf.abandon(0) == ["b", "c"]
    assert buf._expected == 3


def test_abandon_future_seq_waits_its_turn():
    buf = ReorderingBuffer()
    assert buf.abandon(2) == []
    assert buf.insert(0, "a") == ["a"]
    assert buf.insert(1, "b") == ["b"]   # seq 2 then skipped silently
    assert buf.insert(3, "d") == ["d"]
    assert buf._expected == 4


def test_duplicates_ignored():
    buf = ReorderingBuffer()
    buf.insert(0, "a")
    assert buf.insert(0, "a-again") == []
    buf.insert(2, "c")
    assert buf.insert(2, "c-again") == []
    assert buf.insert(1, "b") == ["b", "c"]


def test_stale_abandon_ignored():
    buf = ReorderingBuffer()
    buf.insert(0, "a")
    assert buf.abandon(0) == []
    assert buf._expected == 1


def test_max_held_tracks_peak():
    buf = ReorderingBuffer()
    for seq in range(1, 6):
        buf.insert(seq, seq)
    assert buf.max_held == 5
    buf.insert(0, 0)
    assert buf.max_held == 5


@given(st.permutations(list(range(12))))
def test_any_arrival_order_delivers_sorted(order):
    buf = ReorderingBuffer()
    out = []
    for seq in order:
        out.extend(buf.insert(seq, seq))
    assert out == sorted(order)


@given(st.permutations(list(range(10))),
       st.sets(st.integers(min_value=0, max_value=9), max_size=4))
def test_abandoned_blocks_are_skipped_not_delivered(order, abandoned):
    buf = ReorderingBuffer()
    out = []
    for seq in order:
        if seq in abandoned:
            out.extend(buf.abandon(seq))
        else:
            out.extend(buf.insert(seq, seq))
    assert out == sorted(set(range(10)) - abandoned)


def test_harq_process_attempt_budget():
    h = HarqProcess(seq=0, payload="tb", tb_bits=1000)
    assert h.attempt == 0
    attempts = []
    while h.can_retransmit():
        h.attempt += 1
        attempts.append(h.attempt)
    assert attempts == [1, 2, 3]
    assert not h.can_retransmit()
