"""Job fingerprints: deterministic, content-addressed, input-sensitive."""

import json

import pytest

from repro.exec import Job, canonical_json
from repro.harness import Scenario
from repro.harness.serialize import fingerprint_of
from repro.phy.carrier import CarrierConfig


def tiny_scenario(**overrides):
    base = dict(name="fp", carriers=[CarrierConfig(0, 10.0)],
                aggregated_cells=1, mean_sinr_db=14.0,
                duration_s=1.0, seed=7)
    base.update(overrides)
    return Scenario(**base)


def test_fingerprint_is_stable_and_hex():
    job = Job(tiny_scenario(), "pbe")
    fp = job.fingerprint()
    assert fp == job.fingerprint()
    assert len(fp) == 64
    int(fp, 16)  # valid hex


def test_equal_inputs_equal_fingerprints():
    a = Job(tiny_scenario(), "pbe", {"cc_kwargs": {"x": 1, "y": 2}})
    b = Job(tiny_scenario(), "pbe", {"cc_kwargs": {"y": 2, "x": 1}})
    # dict insertion order must not matter (canonical JSON sorts keys)
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("overrides", [
    {"seed": 8},
    {"duration_s": 2.0},
    {"mean_sinr_db": 15.0},
    {"busy": True},
])
def test_scenario_changes_change_fingerprint(overrides):
    base = Job(tiny_scenario(), "pbe")
    changed = Job(tiny_scenario(**overrides), "pbe")
    assert base.fingerprint() != changed.fingerprint()


def test_scheme_and_spec_changes_change_fingerprint():
    base = Job(tiny_scenario(), "pbe")
    assert base.fingerprint() != Job(tiny_scenario(),
                                     "bbr").fingerprint()
    assert base.fingerprint() != Job(
        tiny_scenario(), "pbe",
        {"cc_kwargs": {"ramp_rtts": 0}}).fingerprint()


def test_to_dict_is_json_ready_and_versioned():
    """The description carries no version: the fingerprint mixes in
    the code id instead (``tests/test_code_id.py``)."""
    job = Job(tiny_scenario(), "pbe", {"rnti": 105})
    data = json.loads(canonical_json(job.to_dict()))
    assert "version" not in data
    assert job.fingerprint() == fingerprint_of(data)
    assert data["scheme"] == "pbe"
    assert data["scenario"]["seed"] == 7
    assert data["spec_overrides"] == {"rnti": 105}


def test_label():
    assert Job(tiny_scenario(), "bbr").label == "fp/bbr"
