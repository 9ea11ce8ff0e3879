"""Job specifications with deterministic content fingerprints.

A :class:`Job` is the unit of work of the execution subsystem: one
single-flow simulation, fully determined by its scenario, scheme and
flow-spec overrides.  Because every simulation is seed-keyed and
deterministic (see ``tests/test_determinism.py``), a job's inputs and
the code fully determine its outputs — which makes jobs
content-addressable: their :func:`~repro.harness.serialize.fingerprint_of`
keys a disk cache of results (:class:`repro.exec.ResultStore`).

Jobs must be JSON-encodable: scenario fields are plain dataclass
values, and ``spec_overrides`` is restricted to the JSON-serializable
subset of :class:`repro.harness.FlowSpec` fields (no live channel or
link objects — those belong to hand-wired :class:`Experiment` scripts,
not to batch sweeps).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..harness.scenarios import Scenario
from ..harness.serialize import fingerprint_of


def scenario_to_dict(scenario: Scenario) -> dict:
    """Flatten a :class:`Scenario` (and its carriers) to primitives."""
    return dataclasses.asdict(scenario)


@dataclass
class Job:
    """One (scenario, scheme, spec-overrides) simulation to run."""

    scenario: Scenario
    scheme: str
    #: JSON-serializable :class:`FlowSpec` keyword overrides
    #: (e.g. ``{"cc_kwargs": {"rate_bps": 6e7}}``).
    spec_overrides: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Short human-readable identifier for progress reporting."""
        return f"{self.scenario.name}/{self.scheme}"

    def to_dict(self) -> dict:
        """The job's full input description, JSON-ready."""
        return {
            "scenario": scenario_to_dict(self.scenario),
            "scheme": self.scheme,
            "spec_overrides": self.spec_overrides,
        }

    def fingerprint(self) -> str:
        """Content hash of the job's inputs and of the code.

        Two jobs share a fingerprint iff they would run the identical
        simulation under the same code, so the fingerprint is safe to
        use as a cache key and for deduplicating submissions.
        """
        return fingerprint_of(self.to_dict())

    def execute(self) -> dict:
        """Run the job and return a JSON-serializable payload.

        The execution subsystem dispatches through this method, so job
        types other than the single-flow simulation (e.g.
        :class:`repro.metro.MetroShardJob`) plug into the same
        supervised runner and cache.  Imports are deferred:
        the job module stays importable without the full harness.

        A ``checkpoint`` attribute (a :meth:`CheckpointConfig.to_dict`
        dictionary, attached by the runner or decoded off the fleet
        wire format) enables mid-run snapshots: the newest valid
        snapshot is restored before the run and the simulation saves on
        the configured subframe cadence.  The attribute is deliberately
        *not* part of :meth:`to_dict` — where a job checkpoints never
        changes what it computes, so fingerprints and cached results
        are shared between checkpointed and plain executions.
        """
        from ..harness.runner import run_flow
        from ..harness.serialize import result_to_dict
        manager = None
        config = getattr(self, "checkpoint", None)
        if config is not None:
            from ..harness.checkpoint import (CheckpointConfig,
                                              CheckpointManager)
            manager = CheckpointManager(CheckpointConfig.from_dict(config))
        result = run_flow(self.scenario, self.scheme,
                          dict(self.spec_overrides), checkpoint=manager)
        return result_to_dict(result)
