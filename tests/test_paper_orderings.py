"""The paper's cheapest orderings, held in tier-1 on two locations.

``benchmarks/`` holds the reproduction to the paper's bar (Table 1,
Fig. 15, ...) at reduced scale in a separate CI job.  This file is the
fast gate beside it: one busy and one idle carrier-aggregation-eligible
location of that same sweep (``sweep_jobs(("pbe", "bbr", "cubic",
"verus", "copa"), n_busy=5, n_idle=3, duration_s=6.0)``), ten flows,
asserting the orderings Table 1 and Fig. 15 report.  A change that
moves simulated behaviour — the next "satellite fix" to the uplink, the
scheduler or a controller — fails here in the PR that makes it.

Recorded values (busy / idle): PBE/BBR throughput 1.02 / 1.01; p95
over PBE's p95: BBR 2.45 / 1.90, Verus 1.98 / 2.74, CUBIC 9.84 / 6.44;
Copa's throughput deficit 4.55 / 2.89; CA activations PBE 2 / 2, Copa
0 / 1.  With the uplink flush rule this repository used before ACKs on
a grant boundary rode that grant (``interval - now % interval``), Copa
reads 7.67 / 8.07 and triggers CA at neither location.
"""

from __future__ import annotations

import pytest

from repro.exec import is_failure, make_runner
from repro.harness.experiments import table1_from_sweep
from repro.harness.experiments.sweep import (SweepResult, entry_from_payload,
                                             sweep_jobs)

SCHEMES = ("pbe", "bbr", "cubic", "verus", "copa")
LOCATIONS = {"busy": "loc02-busy-indoor-3cc", "idle": "loc27-idle-indoor-3cc"}


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    jobs = [job for job in sweep_jobs(SCHEMES, n_busy=5, n_idle=3,
                                      duration_s=6.0)
            if job.scenario.name in LOCATIONS.values()]
    assert len(jobs) == 10
    payloads = make_runner(jobs=1, handle_signals=False).run(jobs)
    assert not [p for p in payloads if is_failure(p)]
    return SweepResult([entry_from_payload(job, payload)
                        for job, payload in zip(jobs, payloads)])


@pytest.fixture(scope="module")
def table1(sweep):
    return table1_from_sweep(sweep, baselines=("bbr", "cubic", "verus",
                                               "copa"))


@pytest.mark.parametrize("condition", sorted(LOCATIONS))
def test_pbe_matches_bbr_throughput_at_lower_delay(table1, condition):
    bbr = table1.row("bbr", condition)
    assert 0.95 <= bbr.throughput_speedup <= 1.10
    assert bbr.p95_delay_reduction > 1.3


@pytest.mark.parametrize("condition", sorted(LOCATIONS))
def test_verus_and_cubic_queue_more_than_pbe(table1, condition):
    assert table1.row("verus", condition).p95_delay_reduction > 1.5
    assert table1.row("cubic", condition).p95_delay_reduction > 3.0


#: Copa's throughput deficit against PBE, as a band around the value
#: recorded above.  The paper's is 10.35 / 12.94; ROADMAP item 2 (a
#: spec-grounded LTE uplink) is what may move it, and that PR re-records
#: this band with the rest of its evidence.
COPA_DEFICIT = {"busy": (3.0, 6.0), "idle": (1.9, 4.0)}


@pytest.mark.parametrize("condition", sorted(LOCATIONS))
def test_copa_deficit_stays_in_its_band(table1, condition):
    low, high = COPA_DEFICIT[condition]
    assert low <= table1.row("copa", condition).throughput_speedup <= high


@pytest.mark.parametrize("condition", sorted(LOCATIONS))
def test_pbe_triggers_carrier_aggregation_and_copa_less(sweep, condition):
    entries = {e.scheme: e for e in sweep.entries
               if e.location == LOCATIONS[condition]}
    assert entries["pbe"].ca_activations >= 1
    assert entries["copa"].ca_activations < entries["pbe"].ca_activations
