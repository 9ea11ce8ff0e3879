"""Tests for JSON result serialization."""

import json

import pytest

from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.serialize import result_to_dict, summary_to_dict
from repro.phy.carrier import CarrierConfig


@pytest.fixture(scope="module")
def results():
    scenario = Scenario(name="ser", carriers=[CarrierConfig(0, 10.0)],
                        aggregated_cells=1, mean_sinr_db=14.0,
                        duration_s=1.5, seed=6)
    exp = Experiment(scenario)
    exp.add_flow(FlowSpec(scheme="pbe"))
    exp.add_flow(FlowSpec(scheme="bbr", rnti=101))
    return exp.run()


def test_summary_roundtrips_through_json(results):
    d = summary_to_dict(results[0].summary)
    again = json.loads(json.dumps(d))
    assert again["scheme"] == "pbe"
    assert again["packets"] > 0
    assert set(again["delay_percentiles_ms"]) == {"10", "25", "50",
                                                  "75", "90"}


def test_result_dict_fields(results):
    d = result_to_dict(results[0])
    assert d["summary"]["scheme"] == "pbe"
    assert d["state_fractions"] is not None
    # what the sweep's readers take; no per-packet log, no counters,
    # and no scheme or RNTI: the reader takes those from its job
    assert set(d) == {"summary", "ca_activations", "state_fractions"}
