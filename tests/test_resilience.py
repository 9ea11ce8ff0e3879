"""Tests for the resilience sweep driver and graceful degradation."""

import numpy as np
import pytest

from repro.cli import main
from repro.exec import make_runner
from repro.harness import run_flow
from repro.harness.experiments.resilience import (
    fault_dict,
    resilience_jobs,
    resilience_scenario,
    run_resilience,
)
from repro.harness.metrics import windowed_throughput_bps


def test_jobs_grid_covers_every_cell():
    jobs = resilience_jobs(schemes=("pbe", "bbr"),
                           miss_rates=(0.0, 0.2), outages_ms=(0, 500),
                           duration_s=2.0)
    assert len(jobs) == 8
    clean = [j for j in jobs if not j.spec_overrides]
    assert len(clean) == 2  # one unimpaired reference per scheme
    impaired = [j for j in jobs if j.spec_overrides]
    for job in impaired:
        faults = job.spec_overrides["faults"]
        assert faults["ack_loss_rate"] > 0
    assert len({j.fingerprint() for j in jobs}) == 8


def test_jobs_grid_rejects_empty_axes():
    with pytest.raises(ValueError):
        resilience_jobs(schemes=())
    with pytest.raises(ValueError):
        resilience_jobs(miss_rates=())


@pytest.mark.parametrize("outage_ms", [-5, 2.5, True])
def test_a_bad_outage_is_named(outage_ms):
    # A negative outage schedules none but would keep the ACK-path dose:
    # an impaired row the table would take for the clean reference.
    with pytest.raises(ValueError, match="outage_ms"):
        fault_dict(0.0, outage_ms, 4.0)
    with pytest.raises(ValueError, match="outage_ms"):
        resilience_jobs(outages_ms=(0, outage_ms))


def test_fault_dict_schedules_outage_at_midpoint():
    assert fault_dict(0.0, 0, 4.0) is None
    faults = fault_dict(0.2, 500, 4.0, fault_seed=7)
    assert faults["dci_miss_rate"] == 0.2
    assert faults["outages"] == [[1750, 500]]
    assert faults["seed"] == 7


def test_fingerprints_stable_under_json_roundtrip():
    import json

    from repro.exec import canonical_json

    jobs = resilience_jobs(schemes=("pbe",), miss_rates=(0.2,),
                           outages_ms=(500,), duration_s=2.0)
    job = jobs[0]
    roundtripped = json.loads(canonical_json(job.to_dict()))
    assert canonical_json(roundtripped) == canonical_json(job.to_dict())


def test_run_resilience_small_grid(tmp_path):
    cache = tmp_path / "cache"
    result = run_resilience(schemes=("pbe",), miss_rates=(0.0,),
                            outages_ms=(0, 200), duration_s=0.5,
                            runner=make_runner(cache_dir=cache))
    assert len(result.entries) == 2
    clean = result.clean_for("pbe")
    assert clean is not None and clean.is_clean
    impaired = [e for e in result.entries if not e.is_clean]
    assert impaired[0].outage_ms == 200
    assert impaired[0].fault_stats is not None
    table = result.format()
    assert "Resilience sweep" in table
    assert "fallback (s)" in table
    # Rerun hits the cache and reproduces the identical entries.
    again = run_resilience(schemes=("pbe",), miss_rates=(0.0,),
                           outages_ms=(0, 200), duration_s=0.5,
                           runner=make_runner(cache_dir=cache))
    assert [e.summary.average_throughput_bps for e in again.entries] \
        == [e.summary.average_throughput_bps for e in result.entries]


def test_cli_resilience_command(capsys, tmp_path):
    args = ["resilience", "--schemes", "pbe", "--miss", "0",
            "--outage-ms", "0,200", "--duration", "0.5",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Resilience sweep" in out
    assert "pbe" in out


# ----------------------------------------------------------------------
# Acceptance: graceful degradation end to end
# ----------------------------------------------------------------------
def test_pbe_degrades_gracefully_and_recovers():
    """20% DCI miss + one 500 ms decoder outage (the issue's bar).

    The flow must complete without raising, spend time on the
    delay-based fallback during the outage, and recover to within 10%
    of the unimpaired run's throughput once reports resume.
    """
    duration_s = 3.0
    scenario = resilience_scenario(duration_s=duration_s, base_seed=400)
    clean = run_flow(scenario, "pbe")
    faults = fault_dict(0.2, 500, duration_s, fault_seed=7)
    impaired = run_flow(scenario, "pbe", {"faults": faults})

    # The outage sits at 1250-1750 ms; the decoder went fully dark.
    stats = impaired.fault_stats
    assert stats is not None
    assert all(cell["outage_subframes"] >= 500
               for cell in stats["decoders"].values())

    # Fallback engaged during the outage (visible in telemetry) and
    # the flow spent most of its life on explicit feedback regardless.
    assert impaired.sender_states["fallback"] > 0.1
    assert impaired.sender_states["wireless"] > 1.0

    # Recovery: after reports resume (plus a settling RTT or two), the
    # impaired flow paces back to the unimpaired operating point.
    window = dict(start_us=2_250_000, end_us=int(duration_s * 1e6))
    clean_tput = float(np.mean(windowed_throughput_bps(
        clean.stats, **window)))
    impaired_tput = float(np.mean(windowed_throughput_bps(
        impaired.stats, **window)))
    assert impaired_tput > 0.9 * clean_tput


def test_impaired_run_is_deterministic():
    scenario = resilience_scenario(duration_s=0.5, base_seed=401)
    faults = fault_dict(0.2, 100, 0.5, fault_seed=3)
    first = run_flow(scenario, "pbe", {"faults": faults})
    second = run_flow(scenario, "pbe", {"faults": faults})
    assert first.summary.average_throughput_bps \
        == second.summary.average_throughput_bps
    assert first.fault_stats == second.fault_stats
    assert first.sender_states == second.sender_states
