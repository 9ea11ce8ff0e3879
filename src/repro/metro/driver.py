"""Metro run orchestration: grid → shard jobs → matrix.

The driver splits the grid into site-aligned shards, wraps each as a
fingerprinted :class:`MetroShardJob`, submits the lot through the
supervised :func:`repro.exec.make_runner` machinery (process pool,
content-addressed cache, SIGINT drain, resume) and merges the
payloads into the matrix document.  Shard payloads are pure functions
of their fingerprints, so a resumed or fully-cached run reassembles a
byte-identical matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec import is_failure, make_runner
from .grid import MetroGrid, build_grid
from .report import build_matrix
from .sets import MetroSet, metro_scenario_sets
from .shard import MetroShardJob


@dataclass
class MetroRunResult:
    """Everything one metro run produced."""

    matrix: dict
    #: :class:`repro.exec.JobFailure` records for shards that failed.
    failures: list = field(default_factory=list)
    jobs: list = field(default_factory=list)


def resolve_set(name_or_set: "str | MetroSet") -> MetroSet:
    """Look up a named set (or pass a :class:`MetroSet` through)."""
    if isinstance(name_or_set, MetroSet):
        return name_or_set
    sets = metro_scenario_sets()
    try:
        return sets[name_or_set]
    except KeyError:
        raise ValueError(f"unknown metro set {name_or_set!r}; "
                         f"known: {sorted(sets)}") from None


def shard_jobs(mset: MetroSet,
               grid: "MetroGrid | None" = None) -> list[MetroShardJob]:
    """The set's shard job list (submission order = shard order)."""
    grid = grid or build_grid(mset.grid)
    jobs = []
    for index, shard in enumerate(grid.shards(mset.shard_cells)):
        jobs.append(MetroShardJob(params={
            "set": mset.name,
            "index": index,
            "seed": mset.seed,
            "cells": [cell.to_dict() for cell in shard],
            "hours": list(mset.hours),
            "hour_s": mset.hour_s,
            "users_scale": mset.users_scale,
            "max_users_per_cell": mset.max_users_per_cell,
            "walkers": mset.walkers_per_shard,
            "fleet": list(mset.fleet),
            "scheduler_policy": mset.scheduler_policy,
        }))
    return jobs


def run_metro(name_or_set: "str | MetroSet",
              runner=None) -> MetroRunResult:
    """Run one metro set end to end and build its matrix.

    ``runner`` (default: ``make_runner()``) sets parallelism, caching
    and supervision, as for :func:`repro.harness.experiments.
    run_stationary_sweep`; with a cache every finished shard is
    stored, so an interrupted run, re-run, recomputes only the rest
    and builds an identical matrix.
    """
    mset = resolve_set(name_or_set)
    grid = build_grid(mset.grid)
    job_list = shard_jobs(mset, grid=grid)
    payloads = (runner or make_runner()).run(job_list)

    good, failures, missing = [], [], []
    for job, payload in zip(job_list, payloads):
        if is_failure(payload):
            failures.append(payload)
            missing.append(job.params["index"])
        else:
            good.append(payload)
    matrix = build_matrix(mset, grid.to_dict(), good)
    matrix["missing_shards"] = sorted(missing)
    return MetroRunResult(matrix=matrix, failures=failures,
                          jobs=job_list)
