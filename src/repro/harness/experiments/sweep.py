"""The §6.3.1 stationary-location sweep: every requested scheme over
the 40-location grid or its first locations, one
:class:`repro.exec.ParallelRunner` job per (location, scheme) run.
Table 1, Figure 12 and Figure 15 reduce its result
(:mod:`repro.harness.claims`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...exec import Job, is_failure, make_runner
from ..metrics import FlowSummary
from ..scenarios import stationary_locations
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

    ``n_busy=25, n_idle=15`` is the paper's full 40-location grid;
    smaller values take its first locations.  ``runner`` (default:
    ``make_runner()``, inline and uncached) sets parallelism, caching
    and supervision (:func:`repro.exec.make_runner`).  Failed jobs land
    in ``.failures`` as :class:`repro.exec.JobFailure` records.
    """
    job_list = sweep_jobs(schemes, n_busy=n_busy, n_idle=n_idle,
                          duration_s=duration_s, base_seed=base_seed)
    return sweep_result(job_list, (runner or make_runner()).run(job_list))


def sweep_result(jobs: list[Job], payloads: list) -> SweepResult:
    """The sweep of ``jobs`` (:func:`sweep_jobs`) from their payloads."""
    return SweepResult(
        [entry_from_payload(job, payload)
         for job, payload in zip(jobs, payloads) if not is_failure(payload)],
        list(filter(is_failure, payloads)))
