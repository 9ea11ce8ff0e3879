#!/usr/bin/env python3
"""Misreported feedback: the §7 server-side guard in action.

PBE-CC trusts the phone's capacity reports.  This demo runs two
connections: an honest PBE-CC client, and a malicious client whose
feedback always claims 500 Mbit/s regardless of the real capacity.
With the :class:`repro.core.FeedbackGuard` attached, the server
compares the reported capacity against its own BBR-style achieved-
throughput estimate (timestamps only, no client involvement) and caps
the flagged client near its measured rate — bounding the queue the
attack can build.

Run:  python examples/misreporting_guard.py
"""

from repro.core import FeedbackGuard, PbeFeedback
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.report import format_table
from repro.net import Tap


def _lie_about_capacity(handle, rate_bps=500e6):
    """Rewrite every ACK the client sends to claim an inflated capacity."""
    def inflate(ack):
        feedback = ack.feedback
        ack.feedback = PbeFeedback.from_rates(
            rate_bps, rate_bps, feedback.internet_bottleneck,
            feedback.carrier_activated)

    client = handle.receiver
    client.uplink = Tap(client.uplink, inflate)


DURATION_S = 16.0


def _run(malicious: bool, guarded: bool):
    scenario = Scenario(name="guard-demo", aggregated_cells=1,
                        mean_sinr_db=14.0, duration_s=DURATION_S,
                        seed=4)
    experiment = Experiment(scenario)
    cc_kwargs = {"guard": FeedbackGuard()} if guarded else {}
    handle = experiment.add_flow(FlowSpec(scheme="pbe",
                                          cc_kwargs=cc_kwargs))
    if malicious:
        _lie_about_capacity(handle)
    result = experiment.run()[0]
    flagged = bool(handle.cc.guard and handle.cc.guard.flagged)
    # Steady-state delay after the guard has had time to act (the
    # detector needs several seconds of consistent over-reporting).
    import numpy as np
    arrivals = np.asarray(result.stats.arrival_us)
    delays = np.asarray(result.stats.delay_us) / 1_000.0
    late = delays[arrivals > (DURATION_S - 5.0) * 1e6]
    late_p95 = float(np.percentile(late, 95)) if late.size else 0.0
    return result, flagged, late_p95


def main() -> None:
    rows = []
    for label, malicious, guarded in [
            ("honest client", False, True),
            ("malicious, no guard", True, False),
            ("malicious, guarded", True, True)]:
        result, flagged, late_p95 = _run(malicious, guarded)
        rows.append([label, result.summary.average_throughput_mbps,
                     late_p95, "yes" if flagged else "no"])
    print(format_table(
        ["client", "tput (Mbit/s)", "steady p95 delay (ms)", "flagged"],
        rows, title="§7 misreported-feedback guard (last 5 s of a "
                    f"{DURATION_S:.0f} s flow)"))
    print("\nThe guard cannot undo the startup queue, but once flagged"
          "\nthe malicious client is pinned near its real throughput "
          "and\nthe bottleneck queue drains.")


if __name__ == "__main__":
    main()
