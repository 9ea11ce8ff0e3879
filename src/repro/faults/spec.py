"""Fault specifications and seed-derived random streams.

A :class:`FaultSpec` is the single JSON-serializable description of
every impairment applied to one flow, so it can ride inside
:class:`~repro.harness.runner.FlowSpec` overrides and therefore inside
content-fingerprinted :class:`repro.exec.Job` submissions: two runs
with the same fault spec (and seed) replay the identical impairment
schedule, on any machine, in any process.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from ..checks import require_int, require_real
from ..traces.seeds import derived_seed


def derived_rng(seed: int, *scope) -> random.Random:
    """A private random stream for one injector.

    The stream is keyed by the fault seed plus a scope tuple (e.g.
    ``("dci", cell_id)``) through :func:`repro.traces.derived_seed`, so
    streams are independent of each other, of consumption order, and of
    the platform — the cross-process determinism the result cache
    needs.
    """
    return random.Random(derived_seed(seed, *scope))


_RATE_FIELDS = ("dci_miss_rate", "dci_false_rate", "outage_enter_rate",
                "ack_loss_rate", "ack_dup_rate", "ack_reorder_rate",
                "feedback_corrupt_rate")


@dataclass(frozen=True)
class FaultSpec:
    """Impairment knobs for one flow (all probabilities in [0, 1])."""

    #: Seed of every derived impairment stream.
    seed: int = 0

    # -- control-channel decoder faults (LossyDecoder) -----------------
    #: Per-DCI-message miss probability (CRC failures on single
    #: messages; OWL reports ~1-5% in the wild).
    dci_miss_rate: float = 0.0
    #: Per-subframe probability of synthesizing a false-positive DCI
    #: (a bogus CRC pass inventing a ghost user on idle PRBs).
    dci_false_rate: float = 0.0
    #: Gilbert-Elliott burst outages: per-subframe probability of
    #: entering the bad state, in which entire subframes fail to decode.
    outage_enter_rate: float = 0.0
    #: Mean burst length, subframes (exit probability is its inverse).
    outage_mean_subframes: float = 8.0
    #: Deterministically scheduled outages, ``(start_subframe,
    #: duration_subframes)`` pairs — e.g. a 500 ms decoder blackout.
    outages: tuple = ()

    # -- ACK return-path faults (ImpairedPipe) -------------------------
    ack_loss_rate: float = 0.0
    ack_dup_rate: float = 0.0
    #: Probability of delaying one packet past its successors.
    ack_reorder_rate: float = 0.0
    #: Extra delay a reordered packet picks up, µs.
    ack_reorder_delay_us: int = 8_000
    #: Probability of corrupting the PBE feedback field on an ACK
    #: (half the corruptions erase the feedback entirely, half flip its
    #: encoded interval to a random 32-bit value).
    feedback_corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        """Validate every field; a bad one raises a ``ValueError`` that
        names it (types first, so a string or NaN never reaches a
        comparison, a ``1 / x`` or the simulator clock)."""
        require_int("seed", self.seed)
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            require_real(name, value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        require_real("outage_mean_subframes", self.outage_mean_subframes)
        if not self.outage_mean_subframes > 0:
            raise ValueError("outage_mean_subframes must be positive, got "
                             f"{self.outage_mean_subframes!r}")
        require_int("ack_reorder_delay_us", self.ack_reorder_delay_us)
        if self.ack_reorder_delay_us < 0:
            raise ValueError("ack_reorder_delay_us must be non-negative, "
                             f"got {self.ack_reorder_delay_us!r}")
        # JSON round-trips lists; normalize to hashable tuples.
        outages = self.outages
        if not isinstance(outages, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                for pair in outages):
            raise ValueError("outages must be a list of [start, duration] "
                             f"pairs, got {outages!r}")
        for start, duration in outages:
            require_int("outages", start)
            require_int("outages", duration)
            if start < 0 or duration < 0:
                raise ValueError("outages must use non-negative "
                                 "start/duration subframes")
        object.__setattr__(self, "outages", tuple(
            (int(start), int(duration)) for start, duration in outages))

    # ------------------------------------------------------------------
    @property
    def impairs_decoder(self) -> bool:
        """True when a :class:`LossyDecoder` would do anything."""
        return (self.dci_miss_rate > 0 or self.dci_false_rate > 0
                or self.outage_enter_rate > 0
                or any(duration > 0 for _, duration in self.outages))

    @property
    def impairs_pipe(self) -> bool:
        """True when an :class:`ImpairedPipe` would do anything."""
        return (self.ack_loss_rate > 0 or self.ack_dup_rate > 0
                or self.ack_reorder_rate > 0
                or self.feedback_corrupt_rate > 0)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        payload = dataclasses.asdict(self)
        payload["outages"] = [list(pair) for pair in self.outages]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a fault spec must be a mapping of fault "
                             f"fields, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault fields: {sorted(unknown, key=str)}")
        return cls(**data)

    def rng(self, *scope) -> random.Random:
        """This spec's derived stream for one injector scope."""
        return derived_rng(self.seed, *scope)
