"""Stateful property test of the HARQ reordering buffer.

A random interleaving of inserts, duplicates and abandons must always
deliver exactly the non-abandoned payloads, in order, never twice.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.phy.harq import ReorderingBuffer


class ReorderMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.buffer = ReorderingBuffer()
        self.next_seq = 0
        self.inserted: set[int] = set()
        self.abandoned: set[int] = set()
        self.delivered: list[int] = []

    @rule(ahead=st.integers(min_value=0, max_value=6))
    def insert_future(self, ahead):
        """Insert a block at or ahead of the frontier (HARQ can only
        delay blocks, never invent sequence numbers out of range)."""
        candidates = [s for s in range(self.next_seq + ahead + 1)
                      if s not in self.inserted
                      and s not in self.abandoned]
        if not candidates:
            seq = self.next_seq
            self.next_seq += 1
        else:
            seq = candidates[-1]
            self.next_seq = max(self.next_seq, seq + 1)
        self.inserted.add(seq)
        self.delivered.extend(self.buffer.insert(seq, seq))

    @rule()
    def duplicate_insert(self):
        if not self.inserted:
            return
        seq = max(self.inserted)
        out = self.buffer.insert(seq, seq)
        assert out == [] or seq not in out[:-1]  # never re-delivered
        self.delivered.extend(
            [] if seq in self.delivered else out)

    @rule(ahead=st.integers(min_value=0, max_value=6))
    def abandon(self, ahead):
        candidates = [s for s in range(self.next_seq + ahead + 1)
                      if s not in self.inserted
                      and s not in self.abandoned]
        if not candidates:
            return
        seq = candidates[0]
        self.abandoned.add(seq)
        self.next_seq = max(self.next_seq, seq + 1)
        self.delivered.extend(self.buffer.abandon(seq))

    @invariant()
    def delivered_in_order_no_dupes(self):
        assert self.delivered == sorted(set(self.delivered))

    @invariant()
    def delivered_only_inserted(self):
        assert set(self.delivered) <= self.inserted

    @invariant()
    def frontier_consistent(self):
        # Everything below the frontier was either delivered or
        # abandoned.
        frontier = self.buffer._expected
        for seq in range(frontier):
            assert seq in self.inserted or seq in self.abandoned
        covered = set(self.delivered) | self.abandoned
        assert set(range(frontier)) <= covered | {
            s for s in self.inserted if s in self.abandoned}


TestReorderMachine = ReorderMachine.TestCase
TestReorderMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
