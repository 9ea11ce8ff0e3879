"""Metro scenario engine: determinism, sharding, matrix, exec wiring.

The metro engine's contract is end-to-end replayability: one seed
determines the grid layout, the diurnal populations, the walker
trajectories, the fleets — and therefore every shard fingerprint and
the final matrix, byte for byte.  These tests pin that, plus the
shard/exec integration (cache hits return identical payloads) and the
matrix semantics (cell order, defined Jain values on idle cells,
missing-shard accounting).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.exec import make_runner
from repro.metro import (
    GridSpec,
    MetroSet,
    build_grid,
    build_matrix,
    format_summary,
    handovers_into,
    metro_scenario_sets,
    population_plan,
    resolve_set,
    run_metro,
    run_shard,
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
    assert build_grid(spec).to_dict() == build_grid(spec).to_dict()


def test_grid_seed_changes_layout():
    a = build_grid(GridSpec(name="g", n_cells=60, seed=1))
    b = build_grid(GridSpec(name="g", n_cells=60, seed=2))
    assert a.to_dict() != b.to_dict()


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
    assert grid.busy_cells()


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
    counts = handovers_into(plans)
    assert sum(counts.values()) == sum(len(p["moves"]) for p in plans)


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0])
def test_walker_plan_rejects_a_duration_it_cannot_end(duration_s):
    # No move time compares >= to a NaN duration, so the plan would
    # grow without bound.  Shard params arrive from fleet wire jobs too.
    with pytest.raises(ValueError, match="duration_s"):
        walker_plan(_tiny_cells(), duration_s, n_walkers=1, seed=11)


# ---------------------------------------------------------------------------
# Shard jobs and fingerprints
# ---------------------------------------------------------------------------

def test_shard_jobs_fingerprints_are_stable_and_distinct():
    first = [job.fingerprint() for job in shard_jobs(TINY)]
    second = [job.fingerprint() for job in shard_jobs(TINY)]
    assert first == second
    assert len(set(first)) == len(first)
    reseeded = TINY.with_overrides(seed=99, grid={"seed": 99})
    assert [j.fingerprint() for j in shard_jobs(reseeded)] != first


def test_shard_payload_is_deterministic():
    job = shard_jobs(TINY)[0]
    a = run_shard(job.params)
    b = run_shard(job.params)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema"] == "repro.metro/shard/v1"
    assert set(a["cells"]) == {str(c["cell_id"])
                               for c in job.params["cells"]}


def test_shard_batched_matches_scalar():
    busy_job = next(job for job in shard_jobs(TINY)
                    if any(c["busy"] for c in job.params["cells"]))
    engine = shard_fingerprint(busy_job.params)
    with reference_engine():
        assert shard_fingerprint(busy_job.params) == engine


# ---------------------------------------------------------------------------
# Matrix assembly and the metro driver
# ---------------------------------------------------------------------------

def test_run_metro_matrix_is_byte_identical_across_runs():
    a = run_metro(TINY)
    b = run_metro(TINY)
    assert not a.failures
    blob_a = json.dumps(a.matrix, sort_keys=True)
    assert blob_a == json.dumps(b.matrix, sort_keys=True)


def test_matrix_rows_are_sorted_and_complete():
    result = run_metro(TINY)
    matrix = result.matrix
    ids = [row["cell_id"] for row in matrix["cells"]]
    assert ids == sorted(ids)
    assert len(ids) == TINY.grid.n_cells
    assert matrix["missing_shards"] == []
    for row in matrix["cells"]:
        # Idle cells have no fleet but still a defined Jain value.
        if not row["flows"]:
            assert row["jain_index"] == 1.0
        assert len(row["offered_users"]) == len(TINY.hours)
    busy_rows = [row for row in matrix["cells"] if row["flows"]]
    assert busy_rows
    assert matrix["summary"]["mean_jain_index"] is not None
    assert "metro set" in format_summary(matrix)


def test_matrix_reports_missing_shards():
    jobs = shard_jobs(TINY)
    payload = run_shard(jobs[0].params)
    matrix = build_matrix(TINY, build_grid(TINY.grid).to_dict(),
                          [payload])
    assert len(matrix["cells"]) == len(jobs[0].params["cells"])
    assert matrix["shards_present"] == [0]


def test_metro_jobs_run_through_exec_cache(tmp_path):
    jobs_list = shard_jobs(TINY)[:1]
    runner = make_runner(jobs=1, cache_dir=tmp_path)
    fresh = runner.run(jobs_list)
    assert runner.stats.executed == 1
    runner2 = make_runner(jobs=1, cache_dir=tmp_path)
    cached = runner2.run(jobs_list)
    assert runner2.stats.cache_hits == 1
    assert runner2.stats.executed == 0
    assert json.dumps(fresh) == json.dumps(cached)


# ---------------------------------------------------------------------------
# Registry / CLI surface
# ---------------------------------------------------------------------------

def test_registry_has_the_documented_sets():
    sets = metro_scenario_sets()
    assert {"smoke", "metro-240", "downtown-999", "pf-churn"} <= set(sets)
    assert 100 <= sets["smoke"].grid.n_cells
    assert sets["downtown-999"].grid.n_cells <= 1000
    assert sets["pf-churn"].scheduler_policy == "proportional_fair"


def test_resolve_set_rejects_unknown_names():
    assert resolve_set("smoke").name == "smoke"
    assert resolve_set(TINY) is TINY
    with pytest.raises(ValueError, match="unknown metro set"):
        resolve_set("no-such-set")


def test_cli_parses_metro_options():
    from repro.cli import build_parser
    args = build_parser().parse_args(
        ["metro", "--smoke", "--hour-s", "0.2", "--jobs", "2",
         "--cache-dir", "/tmp/x", "--out", "m.json"])
    assert args.smoke and args.hour_s == 0.2 and args.out == "m.json"
