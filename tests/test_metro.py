"""Metro shards: determinism of the grid, plans and shards.

A shard's contract is replayability: one seed determines the
grid layout, the diurnal populations, the walker trajectories and the
fleets — and therefore every shard plan and shard run, byte for byte.
These tests pin that, and hold a busy shard's run against the
reference engine.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.harness.serialize import fingerprint_of
from repro.metro import (
    GridSpec,
    MetroSet,
    build_grid,
    population_plan,
    shard_fingerprint,
    shard_jobs,
    walker_plan,
)

from .reference_engine import reference_engine

#: A deliberately tiny set so inline end-to-end tests stay fast.
TINY = MetroSet(
    name="tiny", description="test set",
    grid=GridSpec(name="tiny", n_cells=12, hotspot_fraction=0.1,
                  seed=5),
    hours=(3, 14), hour_s=0.25, shard_cells=6, users_scale=0.02,
    max_users_per_cell=3, walkers_per_shard=2, fleet=("pbe", "cubic"))


# ---------------------------------------------------------------------------
# Grid generation
# ---------------------------------------------------------------------------

def test_grid_is_deterministic():
    spec = GridSpec(name="g", n_cells=60, seed=9)
    assert build_grid(spec).cells == build_grid(spec).cells


def test_grid_seed_changes_layout():
    a = build_grid(GridSpec(name="g", n_cells=60, seed=1))
    b = build_grid(GridSpec(name="g", n_cells=60, seed=2))
    assert a.cells != b.cells


def test_grid_shape_and_tiers():
    grid = build_grid(GridSpec(name="g", n_cells=100,
                               carriers_per_site=3, seed=3))
    assert len(grid.cells) == 100
    assert [c.cell_id for c in grid.cells] == list(range(100))
    # Site primaries are the 20 MHz tier; hotspots are primaries.
    for cell in grid.cells:
        if cell.cell_id % 3 == 0:
            assert cell.bandwidth_mhz == 20.0
        if cell.busy:
            assert cell.bandwidth_mhz == 20.0
            assert not cell.off_hours
    assert any(cell.busy for cell in grid.cells)


def test_shards_are_site_aligned_and_cover_the_grid():
    grid = build_grid(GridSpec(name="g", n_cells=100,
                               carriers_per_site=3, seed=3))
    shards = grid.shards(10)
    flat = [c.cell_id for shard in shards for c in shard]
    assert flat == list(range(100))
    for shard in shards[:-1]:
        assert len(shard) % 3 == 0   # no site straddles a boundary


# ---------------------------------------------------------------------------
# Population and mobility plans
# ---------------------------------------------------------------------------

def _tiny_cells():
    return [c.to_dict() for c in build_grid(TINY.grid).cells]


def test_population_plan_is_deterministic_and_respects_off_hours():
    cells = _tiny_cells()
    plan = population_plan(cells, [0, 14], seed=5, users_scale=0.02,
                           max_users_per_cell=3)
    assert plan == population_plan(cells, [0, 14], seed=5,
                                   users_scale=0.02,
                                   max_users_per_cell=3)
    for cell in cells:
        row = plan[cell["cell_id"]]
        assert len(row["offered"]) == 2
        assert all(s <= 3 for s in row["sim"])
        if 0 in cell["off_hours"]:
            assert row["offered"][0] == 0 and row["sim"][0] == 0


def test_walker_plan_is_deterministic_and_in_range():
    cells = _tiny_cells()
    plans = walker_plan(cells, duration_s=2.0, n_walkers=4, seed=11)
    assert plans == walker_plan(cells, duration_s=2.0, n_walkers=4,
                                seed=11)
    ids = {c["cell_id"] for c in cells}
    for plan in plans:
        assert plan["start_cell"] in ids
        times = [t for t, _ in plan["moves"]]
        assert times == sorted(times)
        assert all(0 < t < 2.0 for t in times)
        assert all(cell in ids for _, cell in plan["moves"])


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0])
def test_walker_plan_rejects_a_duration_it_cannot_end(duration_s):
    # No move time compares >= to a NaN duration, so the plan would
    # grow without bound.
    with pytest.raises(ValueError, match="duration_s"):
        walker_plan(_tiny_cells(), duration_s, n_walkers=1, seed=11)


# ---------------------------------------------------------------------------
# Shard plans and runs
# ---------------------------------------------------------------------------

def _plan_fingerprints(mset):
    return [fingerprint_of(job.params) for job in shard_jobs(mset)]


def test_shard_jobs_fingerprints_are_stable_and_distinct():
    first = _plan_fingerprints(TINY)
    assert _plan_fingerprints(TINY) == first
    assert len(set(first)) == len(first)
    reseeded = dataclasses.replace(
        TINY, seed=99, grid=dataclasses.replace(TINY.grid, seed=99))
    assert _plan_fingerprints(reseeded) != first


def test_shard_batched_matches_scalar():
    busy_job = next(job for job in shard_jobs(TINY)
                    if any(c["busy"] for c in job.params["cells"]))
    engine = shard_fingerprint(busy_job.params)
    with reference_engine():
        assert shard_fingerprint(busy_job.params) == engine
