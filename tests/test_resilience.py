"""Acceptance tests for PBE-CC's graceful degradation under faults."""

import numpy as np

from repro.faults import FaultSpec
from repro.harness import Scenario, run_flow


def test_pbe_degrades_gracefully_and_recovers():
    """20% DCI miss + one 500 ms decoder outage at mid-flow.

    The flow must complete without raising, spend time on the
    delay-based fallback during the outage, and recover to within 10%
    of the unimpaired run's throughput once reports resume.
    """
    duration_s = 3.0
    scenario = Scenario(name="resilience-busy", aggregated_cells=2,
                        mean_sinr_db=18.0, busy=True, background_users=3,
                        duration_s=duration_s, seed=400)
    clean = run_flow(scenario, "pbe")
    faults = FaultSpec(seed=7, dci_miss_rate=0.2, outages=((1250, 500),),
                       ack_loss_rate=0.01,
                       feedback_corrupt_rate=0.005).to_dict()
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
    # impaired flow paces back to the unimpaired operating point: over
    # the same span, throughputs compare as delivered bits do.
    def bits_after_recovery(result):
        arrivals = np.asarray(result.stats.arrival_us)
        sizes = np.asarray(result.stats.size_bits)
        return int(sizes[arrivals >= 2_250_000].sum())

    assert bits_after_recovery(impaired) > 0.9 * bits_after_recovery(clean)


def test_impaired_run_is_deterministic():
    scenario = Scenario(name="resilience-busy", aggregated_cells=2,
                        mean_sinr_db=18.0, busy=True, background_users=3,
                        duration_s=0.5, seed=401)
    faults = FaultSpec(seed=3, dci_miss_rate=0.2, outages=((200, 100),),
                       ack_loss_rate=0.01,
                       feedback_corrupt_rate=0.005).to_dict()
    first = run_flow(scenario, "pbe", {"faults": faults})
    second = run_flow(scenario, "pbe", {"faults": faults})
    assert first.summary.average_throughput_bps \
        == second.summary.average_throughput_bps
    assert first.fault_stats == second.fault_stats
    assert first.sender_states == second.sender_states
