"""HARQ retransmission constants and the receiver reordering buffer (§3).

The cellular network retransmits an erroneous transport block exactly
eight subframes (8 ms) after the original transmission, at most three
times.  To guarantee in-order delivery the mobile buffers every
correctly received out-of-sequence transport block in a *reordering
buffer* until the erroneous block is finally received (or abandoned),
which is what quantizes one-way delay into 8 ms steps (Figure 8) and
motivates PBE-CC's delay threshold ``Dprop + 3·8 + 3`` ms (§4.2.2).
"""

from __future__ import annotations

from typing import Generic, TypeVar

#: Subframes between a failed transmission and its retransmission.
RETX_DELAY_SUBFRAMES = 8
#: Maximum number of retransmissions of one transport block (3GPP TS 36.213).
MAX_RETRANSMISSIONS = 3

T = TypeVar("T")


class ReorderingBuffer(Generic[T]):
    """In-order delivery of transport blocks keyed by sequence number.

    ``insert`` returns the payloads that become deliverable (in order);
    ``abandon`` gives up on a sequence number (HARQ failure after the
    maximum number of retransmissions) and releases anything it was
    blocking.
    """

    def __init__(self) -> None:
        self._expected = 0
        self._held: dict[int, T] = {}
        #: Sequence numbers abandoned before their turn came up.
        self._abandoned: set[int] = set()
        self.max_held = 0

    def insert(self, seq: int, payload: T) -> list[T]:
        """Accept block ``seq``; return now-deliverable payloads in order."""
        expected = self._expected
        if seq == expected and not self._held and not self._abandoned:
            # In order with nothing parked: _drain would release exactly
            # this block and stop (max_held is unchanged, as held ends
            # empty).
            self._expected = expected + 1
            return [payload]
        if seq < expected or seq in self._held:
            return []  # duplicate of something already delivered/held
        self._held[seq] = payload
        released = self._drain()
        self.max_held = max(self.max_held, len(self._held))
        return released

    def abandon(self, seq: int) -> list[T]:
        """Give up waiting for block ``seq``; release anything blocked."""
        if seq < self._expected:
            return []
        self._abandoned.add(seq)
        return self._drain()

    def _drain(self) -> list[T]:
        released: list[T] = []
        while True:
            if self._expected in self._held:
                released.append(self._held.pop(self._expected))
                self._expected += 1
            elif self._expected in self._abandoned:
                self._abandoned.discard(self._expected)
                self._expected += 1
            else:
                break
        return released

