"""Capacity-trace recording and replay (Mahimahi-style).

Cellular CC research commonly evaluates over *recorded* capacity
traces (Sprout's and Verus's evaluations, the Pantheon/Mahimahi
toolchain).  This module closes the loop for the simulator:

* :class:`CapacityTrace` — a per-millisecond deliverable-bits series.
  It can be measured off a saturated run's decoded control channel
  (`from_served_records`), loaded from or saved to the Mahimahi packet-
  delivery-opportunity format (one line per 1500-byte delivery, the
  line being its millisecond timestamp), or built synthetically.
* :class:`TraceLink` — a link whose deliverable budget follows a
  trace (looping), with a droptail queue and propagation delay, so any
  congestion controller in :mod:`repro.baselines` can be evaluated
  trace-driven without the full cell simulation.
"""

from __future__ import annotations

import numbers
from collections import deque
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ..net.link import Receiver
from ..net.packet import Packet
from ..net.sim import Simulator
from ..net.units import MSS_BITS, SUBFRAME_US
from ..phy.dci import SubframeRecord

#: Latest Mahimahi timestamp a trace file may hold, ms: one hour.  The
#: trace is a dense per-millisecond list, so without a bound one line
#: ("10000000000") would ask for ten billion entries.
MAX_TRACE_MS = 3_600_000


class CapacityTrace:
    """A periodic per-millisecond capacity series (bits per ms)."""

    def __init__(self, bits_per_ms: Sequence[int]) -> None:
        if not bits_per_ms:
            raise ValueError("trace must be non-empty")
        for ms, bits in enumerate(bits_per_ms):
            if (isinstance(bits, bool)
                    or not isinstance(bits, numbers.Integral) or bits < 0):
                raise ValueError(f"bits_per_ms[{ms}] must be a non-negative "
                                 f"integer, got {bits!r}")
        self.bits_per_ms = list(bits_per_ms)

    def __len__(self) -> int:
        """Trace length in milliseconds."""
        return len(self.bits_per_ms)

    @property
    def mean_bps(self) -> float:
        """Long-run capacity of the looping trace, bits/second."""
        return sum(self.bits_per_ms) / len(self.bits_per_ms) * 1_000

    def budget(self, subframe: int) -> int:
        """Deliverable bits in the given millisecond (trace loops)."""
        return self.bits_per_ms[subframe % len(self.bits_per_ms)]

    # ------------------------------------------------------------------
    # Recording from a simulated cell
    # ------------------------------------------------------------------
    @classmethod
    def from_served_records(cls, records: Iterable[SubframeRecord],
                            rnti: Optional[int] = None) -> \
            "CapacityTrace":
        """Measure a trace from decoded control-channel records.

        With ``rnti`` the trace is that user's served bits per subframe
        (a saturated flow's service process *is* the capacity trace it
        experienced); without it, the whole cell's.
        """
        bits = []
        for record in records:
            if rnti is None:
                bits.append(sum(m.tbs_bits for m in record.messages))
            else:
                bits.append(sum(m.tbs_bits for m in record.messages
                                if m.rnti == rnti))
        if not bits:
            raise ValueError("no records to measure")
        return cls(bits)

    # ------------------------------------------------------------------
    # Mahimahi interoperability
    # ------------------------------------------------------------------
    def to_mahimahi_lines(self) -> list[str]:
        """One line per 1500-byte delivery opportunity (ms timestamps).

        Fractional-packet remainders carry over between milliseconds,
        exactly like Mahimahi's trace semantics.
        """
        lines = []
        carry = 0
        for ms_index, bits in enumerate(self.bits_per_ms, start=1):
            carry += bits
            while carry >= MSS_BITS:
                lines.append(str(ms_index))
                carry -= MSS_BITS
        return lines

    @classmethod
    def from_mahimahi_lines(cls, lines: Iterable[str]) -> \
            "CapacityTrace":
        """Parse the Mahimahi format back into a bits/ms series.

        A line that is not a timestamp in ``1..MAX_TRACE_MS`` raises a
        :class:`ValueError` naming its 1-based line number."""
        timestamps = []
        for number, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                t = int(text)
            except ValueError:
                raise ValueError(f"line {number}: not an integer "
                                 f"timestamp: {text!r}") from None
            if not 1 <= t <= MAX_TRACE_MS:
                raise ValueError(f"line {number}: timestamp {t} ms is "
                                 f"outside 1..{MAX_TRACE_MS}")
            timestamps.append(t)
        if not timestamps:
            raise ValueError("empty trace")
        duration_ms = max(timestamps)
        bits = [0] * duration_ms
        for t in timestamps:
            bits[t - 1] += MSS_BITS
        return cls(bits)

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a Mahimahi-format file."""
        Path(path).write_text("\n".join(self.to_mahimahi_lines()) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CapacityTrace":
        """Read a Mahimahi-format trace file."""
        return cls.from_mahimahi_lines(
            Path(path).read_text().splitlines())


class TraceLink(Receiver):
    """A trace-driven bottleneck link.

    Every millisecond it forwards up to the trace's budget from its
    droptail queue, then propagates for ``delay_us`` — the standard
    Mahimahi link model, usable as the ``egress`` of any
    :class:`~repro.baselines.base.Sender`.
    """

    def __init__(self, sim: Simulator, sink: Receiver,
                 trace: CapacityTrace, delay_us: int = 0,
                 queue_packets: int = 1000, name: str = "trace") -> None:
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.sink = sink
        self.trace = trace
        self.delay_us = delay_us
        self.queue_packets = queue_packets
        self.name = name
        self._queue: deque[list] = deque()  # [packet, remaining_bits]
        self._subframe = 0
        self.forwarded = 0
        self.dropped = 0
        self._started = False

    def start(self) -> None:
        """Begin the per-millisecond service loop."""
        if self._started:
            raise RuntimeError("trace link already started")
        self._started = True
        self.sim.schedule(0, self._tick)

    def receive(self, packet: Packet) -> None:
        """Enqueue a packet (droptail beyond the queue limit)."""
        if len(self._queue) >= self.queue_packets:
            self.dropped += 1
            return
        self._queue.append([packet, packet.size_bits])

    def _tick(self) -> None:
        budget = self.trace.budget(self._subframe)
        self._subframe += 1
        while self._queue and budget > 0:
            entry = self._queue[0]
            packet, remaining = entry
            take = min(remaining, budget)
            entry[1] -= take
            budget -= take
            if entry[1] == 0:
                self._queue.popleft()
                self.forwarded += 1
                self.sim.schedule(self.delay_us, self.sink.receive,
                                  packet)
        # Unused budget is lost (a radio cannot bank airtime), but a
        # partially-served head packet keeps its progress.
        self.sim.schedule(SUBFRAME_US, self._tick)
