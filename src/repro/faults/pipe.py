"""Impaired reverse-path pipe (§2's lossy, compressed ACK channel).

:class:`ImpairedPipe` is a :class:`~repro.net.link.Receiver` that sits
in front of any downstream pipe (typically the LTE-uplink
:class:`~repro.net.link.BatchingPipe`) and impairs the packet stream:

* **loss** — drop with ``ack_loss_rate``;
* **duplication** — deliver twice with ``ack_dup_rate`` (the sender's
  spurious-ACK path absorbs the copy);
* **reordering** — with ``ack_reorder_rate`` hold one packet for
  ``ack_reorder_delay_us`` so later packets overtake it;
* **feedback corruption** — with ``feedback_corrupt_rate`` mangle the
  PBE capacity report riding on an ACK: half the corruptions erase the
  feedback entirely (an undecodable option field), half flip the
  encoded target interval to a random 32-bit value, exercising the
  saturating decode path in :mod:`repro.core.feedback`.

Untouched packets are forwarded synchronously and object-identical,
so a zero-probability spec leaves event timing exactly as if the pipe
were absent.
"""

from __future__ import annotations

import copy

from ..core.feedback import PbeFeedback
from ..net.link import Receiver
from ..net.packet import Packet
from ..net.sim import Simulator
from .spec import FaultSpec


class ImpairedPipe(Receiver):
    """Loss / reordering / duplication / corruption packet wrapper."""

    #: Checkpointing: wiring and the (immutable) fault spec come from
    #: the rebuilt experiment; only the RNG stream and counters travel.
    SNAPSHOT_SKIP = ("sim", "sink", "spec")

    def __init__(self, sim: Simulator, sink: Receiver, spec: FaultSpec,
                 flow_id: int = 0, name: str = "impaired") -> None:
        self.sim = sim
        self.sink = sink
        self.spec = spec
        self.name = name
        self._rng = spec.rng("pipe", flow_id)

        self.forwarded = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0

    # ------------------------------------------------------------------
    def _corrupt_feedback(self, packet: Packet) -> Packet:
        """Mangle the PBE feedback field (never mutates the original)."""
        self.corrupted += 1
        mangled = copy.copy(packet)
        if self._rng.random() < 0.5:
            mangled.feedback = None  # undecodable option field
        else:
            mangled.feedback = packet.feedback._replace(
                target_interval_us=self._rng.getrandbits(32))
        return mangled

    def receive(self, packet: Packet) -> None:
        spec = self.spec
        rng = self._rng
        if spec.ack_loss_rate > 0 and rng.random() < spec.ack_loss_rate:
            self.dropped += 1
            return
        if (spec.feedback_corrupt_rate > 0
                and isinstance(packet.feedback, PbeFeedback)
                and rng.random() < spec.feedback_corrupt_rate):
            packet = self._corrupt_feedback(packet)
        if (spec.ack_reorder_rate > 0
                and rng.random() < spec.ack_reorder_rate):
            # Hold this packet back so its successors overtake it.
            self.reordered += 1
            self.forwarded += 1
            self.sim.schedule(spec.ack_reorder_delay_us,
                              self.sink.receive, packet)
            return
        self.forwarded += 1
        self.sink.receive(packet)
        if spec.ack_dup_rate > 0 and rng.random() < spec.ack_dup_rate:
            self.duplicated += 1
            self.sink.receive(packet)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Impairment counters (for telemetry/results)."""
        return {
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "corrupted": self.corrupted,
        }
