"""PBE-CC reproduction: congestion control via endpoint-centric,
physical-layer bandwidth measurements (Xie, Yi, Jamieson — SIGCOMM 2020).

Package layout
--------------
``repro.net``       discrete-event network core (event loop, links,
                    packets, per-flow logs)
``repro.phy``       LTE/5G physical-layer substrate (PRBs, MCS tables,
                    channels, HARQ, DCI control messages, carriers)
``repro.cell``      base-station MAC (per-user queues, equal-share
                    scheduler, carrier aggregation, control traffic)
``repro.monitor``   the PBE measurement module (control-channel
                    decoding, user filtering, Eqns. 1-5)
``repro.core``      the PBE-CC congestion-control algorithm (sender,
                    mobile client, ACK feedback)
``repro.baselines`` BBR, CUBIC, Verus, Sprout, Copa, PCC, Vivace
``repro.harness``   Pantheon-like runner, scenarios and metrics
``repro.traces``    workload, mobility and cell-activity generators

Quick start
-----------
>>> from repro.harness import Scenario, run_flow
>>> result = run_flow(Scenario(name="demo", duration_s=3.0), "pbe")
>>> result.summary.average_throughput_mbps  # doctest: +SKIP
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
