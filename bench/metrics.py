"""Metric names, units and bounds: the one table everything reads.

``BENCHMARK.json`` at the repository root is :func:`manifest` written
out (``test_bench.py`` holds the two together); ``run.py`` takes units
from here and ``compare.py`` the bounds.
"""

from __future__ import annotations

import statistics

from trace import SPAN_NAMES

#: How long one run measures, seconds (``run_seconds`` of the manifest).
RUN_SECONDS = 16

#: ``(name, unit, better, bound)``.  ``bound`` is the share of the
#: parent's median by which a metric may worsen before it counts as a
#: regression; see README.md ("Noise floor") for how each was sized.
END_TO_END = (
    ("sim_rate", "sim_s/s", "higher", 0.25),
    ("cpu_s_per_sim_s", "cpu_s/sim_s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("pbe_tput_mbps", "Mbit/s", "higher", 0.25),
    ("pbe_p95_delay_ms", "ms", "lower", 0.15),
)

#: The three numbers every span reports: ``(suffix, unit)``.
SPAN_METRICS = (
    ("self_ms_per_sim_s", "ms/sim_s"),
    ("calls_per_sim_s", "1/sim_s"),
    ("share", "ratio"),
)

#: Counts and ratios read from public state: ``(name, unit, better)``.
COUNT_METRICS = (
    ("net.sim.events_popped_per_tick", "count", "lower"),
    ("net.sim.events_scheduled_per_tick", "count", "lower"),
    ("net.sim.cancelled_event_ratio", "ratio", "lower"),
    ("net.uplink.acks_per_batch", "count", "higher"),
    ("cell.ue.tbs_per_tick", "count", "lower"),
    ("cell.ue.abandoned_tb_ratio", "ratio", "lower"),
    ("monitor.ingest.messages_per_subframe", "count", "lower"),
    ("baselines.ack_clock.lost_packet_ratio", "ratio", "lower"),
    ("faults.pipe.dropped_ratio", "ratio", "lower"),
    ("exec.job_wall_s", "s", "lower"),
    ("exec.dispatch_overhead_s", "s", "lower"),
    ("exec.store.warm_s_per_job", "s", "lower"),
    ("exec.cache_hit_rate", "ratio", "higher"),
    ("exec.retries", "count", "lower"),
    ("exec.fleet.overhead_ratio", "ratio", "lower"),
    ("harness.checkpoint.overhead_frac", "ratio", "lower"),
    ("harness.checkpoint.snapshot_kb", "KiB", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

PER_LAYER = tuple(
    [(f"{span}.{suffix}", unit, "lower")
     for span in SPAN_NAMES for suffix, unit in SPAN_METRICS]
    + list(COUNT_METRICS))

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` the way the driver takes them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def manifest(workloads: dict) -> dict:
    """The ``BENCHMARK.json`` document for these workloads."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
