"""Tests for scenario definitions and the 40-location sweep."""

import pytest

from repro.harness.scenarios import (
    Scenario,
    default_carriers,
    representative_locations,
    stationary_locations,
)


def test_default_carriers_match_paper_cells():
    carriers = default_carriers()
    assert len(carriers) == 3
    assert carriers[0].total_prbs == 100   # 20 MHz primary
    assert carriers[0].frequency_ghz == pytest.approx(1.94)


def test_scenario_device_cells():
    s = Scenario(name="x", aggregated_cells=2)
    assert s.device_cells == [0, 1]


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", aggregated_cells=4)
    with pytest.raises(ValueError):
        Scenario(name="x", duration_s=0)


@pytest.mark.parametrize("rates, fragment", [
    ({"0": 0.4}, "key must be an integer"),        # JSON's string key
    ({0: 0.4, 7: 0.3}, "names cell 7"),            # no such carrier
    ({True: 0.4}, "key must be an integer"),
    ({0: -0.1}, "must be non-negative"),
    ({0: float("nan")}, "must be a finite number"),
    ({0: "0.4"}, "must be a finite number"),
    ([(0, 0.4)], "must be a dict"),
], ids=["json_string_key", "unknown_cell", "bool_key", "negative_rate",
        "nan_rate", "string_rate", "not_a_dict"])
def test_control_arrivals_by_cell_fails_loudly(rates, fragment):
    with pytest.raises(ValueError, match="control_arrivals_by_cell") as err:
        Scenario(name="x", busy=True, control_arrivals_by_cell=rates)
    assert fragment in str(err.value)


def test_busy_controls_arrival_rate():
    busy = Scenario(name="b", busy=True)
    idle = Scenario(name="i", busy=False)
    assert busy.control_arrivals_per_subframe > \
        idle.control_arrivals_per_subframe


def test_channel_is_reproducible():
    s = Scenario(name="x", mean_sinr_db=17.0, fading_std_db=1.0, seed=3)
    a, b = s.channel(), s.channel()
    assert [a.sinr_db(t) for t in range(5)] == \
        [b.sinr_db(t) for t in range(5)]


def test_sweep_composition_matches_table1():
    locations = stationary_locations()
    assert len(locations) == 40
    busy = [s for s in locations if s.busy]
    idle = [s for s in locations if not s.busy]
    assert len(busy) == 25 and len(idle) == 15
    # All aggregation levels represented.
    assert {s.aggregated_cells for s in locations} == {1, 2, 3}
    # Busy locations have background competition, idle ones do not.
    assert all(s.background_users > 0 for s in busy)
    assert all(s.background_users == 0 for s in idle)
    # Unique names and seeds.
    assert len({s.name for s in locations}) == 40
    assert len({s.seed for s in locations}) == 40


def test_representative_locations_cover_figures():
    reps = representative_locations()
    assert len(reps) == 6
    assert any("idle" in k for k in reps)
    assert any("outdoor" in k for k in reps)
    assert {s.aggregated_cells for s in reps.values()} == {1, 2, 3}
