"""The §6.3.1 stationary-location sweep.

Runs every requested scheme over every location of the 40-location
grid (or a subset — the full sweep is hundreds of flow-seconds of
simulation).  Table 1, Figure 12 and Figure 15 are all views of this
one sweep's results.

Each (location, scheme) run is an independent, deterministic job, so
the sweep submits through :class:`repro.exec.ParallelRunner`: pass
``runner=make_runner(jobs=N, cache_dir=...)`` to fan runs out over
worker processes and memoize completed runs on disk (re-running a
sweep then only executes jobs whose inputs changed or that never
finished — the result store is the one record of finished work, so
re-running *is* resuming).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...exec import Job, is_failure, make_runner
from ..metrics import FlowSummary
from ..scenarios import Scenario, stationary_locations
from ..serialize import summary_from_dict, summary_to_dict


@dataclass
class SweepEntry:
    """One (scheme, location) run."""

    scheme: str
    location: str
    busy: bool
    aggregated_cells: int
    summary: FlowSummary
    ca_activations: int
    state_fractions: dict | None


@dataclass
class SweepResult:
    """All runs of one stationary sweep."""

    entries: list[SweepEntry] = field(default_factory=list)
    #: Structured :class:`repro.exec.JobFailure` records for runs that
    #: failed (non-strict execution keeps the rest of the sweep).
    failures: list = field(default_factory=list)

    def for_scheme(self, scheme: str) -> list[SweepEntry]:
        return [e for e in self.entries if e.scheme == scheme]

    def locations(self) -> list[str]:
        return list(dict.fromkeys(e.location for e in self.entries))

    def schemes(self) -> list[str]:
        return list(dict.fromkeys(e.scheme for e in self.entries))


def entry_to_dict(entry: SweepEntry) -> dict:
    """Flatten one sweep entry to JSON-ready primitives."""
    return {
        "scheme": entry.scheme,
        "location": entry.location,
        "busy": entry.busy,
        "aggregated_cells": entry.aggregated_cells,
        "summary": summary_to_dict(entry.summary),
        "ca_activations": entry.ca_activations,
        "state_fractions": entry.state_fractions,
    }


def entry_from_payload(job: Job, payload: dict) -> SweepEntry:
    """Build a :class:`SweepEntry` from a job and its runner payload."""
    scenario = job.scenario
    return SweepEntry(
        scheme=job.scheme, location=scenario.name, busy=scenario.busy,
        aggregated_cells=scenario.aggregated_cells,
        summary=summary_from_dict(payload["summary"]),
        ca_activations=payload["ca_activations"],
        state_fractions=payload["state_fractions"])


def sweep_jobs(schemes: tuple[str, ...] = ("pbe", "bbr"),
               n_busy: int = 25, n_idle: int = 15,
               duration_s: float = 8.0,
               base_seed: int = 100) -> list[Job]:
    """The sweep's job list ((location × scheme), submission order)."""
    if n_busy < 0 or n_idle < 0 or n_busy + n_idle == 0:
        raise ValueError("need at least one location")
    grid = stationary_locations(duration_s=duration_s,
                                base_seed=base_seed)
    busy = [s for s in grid if s.busy][:n_busy]
    idle = [s for s in grid if not s.busy][:n_idle]
    return [Job(scenario, scheme)
            for scenario in busy + idle for scheme in schemes]


def run_stationary_sweep(schemes: tuple[str, ...] = ("pbe", "bbr"),
                         n_busy: int = 25, n_idle: int = 15,
                         duration_s: float = 8.0,
                         base_seed: int = 100,
                         runner=None) -> SweepResult:
    """Run ``schemes`` over a busy/idle location grid.

    ``n_busy=25, n_idle=15`` reproduces the paper's full 40-location
    grid; smaller values subsample it proportionally (benchmarks use a
    reduced grid by default to keep runtimes sane).

    ``runner`` (default: ``make_runner()``, inline and uncached) sets
    parallelism, result caching and supervision (deadline, retries,
    ``strict``, failure budget), and keeps the telemetry; see
    :func:`repro.exec.make_runner`.  Failed jobs land in ``.failures`` as
    :class:`repro.exec.JobFailure` records; with a cache an
    interrupted run, re-run, recomputes only what never finished.
    """
    job_list = sweep_jobs(schemes, n_busy=n_busy, n_idle=n_idle,
                          duration_s=duration_s, base_seed=base_seed)
    payloads = (runner or make_runner()).run(job_list)
    result = SweepResult()
    for job, payload in zip(job_list, payloads):
        if is_failure(payload):
            result.failures.append(payload)
        else:
            result.entries.append(entry_from_payload(job, payload))
    return result
