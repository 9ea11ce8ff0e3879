"""Byte-identity fingerprints for whole simulation runs.

The repo's invariant since PR 4 is that performance work never changes
behaviour: every optimized path must be *byte-identical* to the code it
replaced.  This module turns one simulated run into a SHA-256 digest of
everything observable — per-packet delivery logs, sender/client state
machines, carrier-aggregation decisions, and the monitor's internal
estimator state — so two versions of the engine (or the engine and the
per-subframe, per-ACK reference in ``tests/reference_engine.py``) can
be compared with a string equality.

:func:`fingerprint_configs` defines the 8-configuration suite the perf
PRs verify against; :func:`run_fingerprint` executes one configuration
and returns its digest.  ``tests/test_batch_engine.py`` adds randomized
configurations on top and holds both to recorded goldens.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..monitor.pbe import PbeMonitor
from ..phy.channel import GaussMarkovChannel, TraceChannel
from .runner import Experiment, FlowSpec
from .scenarios import Scenario


def _canon(part: object) -> object:
    """Canonicalize to plain Python values before hashing.

    Bitwise-equal numbers can carry different Python types (per-subframe
    channel sampling leaves ``np.float64`` where the block cache's
    ``.tolist()`` produces ``float``); ``repr`` would tell them apart,
    the IEEE bit pattern does not.  Identity means identical *values*.
    """
    if isinstance(part, np.generic):
        return part.item()
    if isinstance(part, (list, tuple)):
        return tuple(_canon(p) for p in part)
    if isinstance(part, dict):
        return tuple(sorted((repr(_canon(k)), _canon(v))
                            for k, v in part.items()))
    return part


def _hash_update(hasher: "hashlib._Hash", *parts: object) -> None:
    for part in parts:
        hasher.update(repr(_canon(part)).encode())
        hasher.update(b"\x00")


#: Values per chunk when a packed column is streamed into the digest.
_CHUNK = 4096


def _hash_column(hasher: "hashlib._Hash", column) -> None:
    """Hash an int column exactly as ``_hash_update(hasher, tuple(column))``.

    The bytes are ``repr(tuple(column))`` and the separator, streamed
    :data:`_CHUNK` values at a time (``str`` of an int is its ``repr``;
    ``()`` and ``(x,)`` are the empty and one-value forms), so a run's
    packet log is never boxed into one tuple and one string.
    """
    update = hasher.update
    update(b"(")
    for start in range(0, len(column), _CHUNK):
        if start:
            update(b", ")
        update(", ".join(map(str, column[start:start + _CHUNK])).encode())
    update(b",)\x00" if len(column) == 1 else b")\x00")


def _monitor_digest(hasher: "hashlib._Hash", monitor: PbeMonitor) -> None:
    """Fold the monitor's full internal state into the digest.

    Monitor state that never fed back into the sender would not show up
    in the packet log, so it is hashed explicitly — this is what makes
    the fingerprint sensitive to ingest bugs on quiet cells.
    """
    _hash_update(hasher, monitor.last_subframe, monitor.gap_events,
                 monitor.missed_subframes, monitor.active_cells())
    for cell_id in sorted(monitor.estimators):
        est = monitor.estimators[cell_id]
        cap1 = est._cap + 1
        _hash_update(
            hasher, cell_id, est._count, est.last_subframe,
            est.last_own_grant_subframe,
            est._cum_pa[est._count % cap1],
            est._cum_idle[est._count % cap1],
            est._cum_rate[est._count % cap1],
            tuple(est._subframes), tuple(est._bers),
            sorted((rnti, act.active_subframes, act.total_prbs)
                   for rnti, act in est.users._activity.items()))
        decoder = monitor.decoders[cell_id]
        _hash_update(hasher, decoder.subframes_decoded,
                     decoder.messages_decoded, decoder.search_attempts)


def digest_run(experiment: Experiment, handles: list, results: list,
               report_window: int = 40) -> str:
    """Digest a completed experiment (any number of flows).

    ``handles``/``results`` are the :meth:`Experiment.add_flow` handles
    and the matching :meth:`Experiment.run` results.  Callers that wire
    their own multi-flow experiments (e.g. ``repro.metro`` shards) use
    this directly; :func:`run_fingerprint` wraps it for the standard
    one-scenario/spec-list configurations.
    """
    hasher = hashlib.sha256()
    _hash_update(hasher, experiment.sim.now, experiment.network.subframe)
    for handle, result in zip(handles, results):
        stats = result.stats
        for column in (stats.arrival_us, stats.size_bits, stats.delay_us):
            _hash_column(hasher, column)
        _hash_update(
            hasher, result.sent_packets, result.lost_packets,
            result.ca_activations, result.state_fractions,
            result.sender_states, result.fault_stats)
        if handle.monitor is not None:
            _monitor_digest(hasher, handle.monitor)
            report = handle.monitor.report(
                report_window, now_subframe=experiment.network.subframe)
            _hash_update(hasher, report.physical_capacity,
                         report.transport_capacity, report.fair_share,
                         report.transport_fair_share,
                         report.users_per_cell, report.active_cells,
                         report.staleness_subframes, report.confidence)
    return hasher.hexdigest()


def run_fingerprint(scenario: Scenario, specs: list[FlowSpec],
                    report_window: int = 40) -> str:
    """Run one configuration and digest everything observable."""
    experiment = Experiment(scenario)
    handles = [experiment.add_flow(spec) for spec in specs]
    results = experiment.run()
    return digest_run(experiment, handles, results,
                      report_window=report_window)


def fingerprint_configs(duration_s: float = 2.0) \
        -> dict[str, tuple[Scenario, list[FlowSpec]]]:
    """The 8-configuration byte-identity suite.

    Covers: all three channel models, 1/2/3 aggregated cells (CA on and
    off), busy and idle cells, CQI reporting delay, decoder/ACK faults,
    per-cell decoder outages, and five schemes (PBE, BBR, CUBIC, Copa,
    Verus) sharing one busy carrier.
    """
    trace = TraceChannel(
        [(0, -92.0), (400_000, -101.0), (900_000, -88.0),
         (1_400_000, -104.0), (2_000_000, -95.0)],
        fading_std_db=1.0, seed=77)
    gauss = GaussMarkovChannel(
        mean_sinr_db=15.0, std_db=3.0, memory=0.9,
        coherence_us=8_000, seed=42)
    faults = {"seed": 5, "dci_miss_rate": 0.05, "dci_false_rate": 0.002,
              "ack_loss_rate": 0.01}
    mixed = [FlowSpec(scheme=scheme, rnti=100 + i,
                      channel=GaussMarkovChannel(
                          mean_sinr_db=15.0, std_db=2.0, memory=0.9,
                          coherence_us=8_000, seed=70 + i),
                      faults=faults if scheme == "pbe" else None)
             for i, scheme in enumerate(
                 ("pbe", "bbr", "cubic", "copa", "verus"))]
    return {
        "busy_2cc_pbe": (
            Scenario(name="fp-busy-2cc", aggregated_cells=2,
                     mean_sinr_db=18.0, busy=True, background_users=3,
                     duration_s=duration_s, seed=11),
            [FlowSpec(scheme="pbe")]),
        "idle_3cc_pbe": (
            Scenario(name="fp-idle-3cc", aggregated_cells=3,
                     mean_sinr_db=23.0, busy=False,
                     duration_s=duration_s, seed=12),
            [FlowSpec(scheme="pbe")]),
        "busy_1cc_gauss_cqi": (
            Scenario(name="fp-gauss-1cc", aggregated_cells=1,
                     mean_sinr_db=15.0, busy=True, background_users=2,
                     cqi_delay_subframes=4, duration_s=duration_s,
                     seed=13),
            [FlowSpec(scheme="pbe", channel=gauss)]),
        "trace_2cc_pbe": (
            Scenario(name="fp-trace-2cc", aggregated_cells=2,
                     mean_sinr_db=18.0, busy=False,
                     duration_s=duration_s, seed=14),
            [FlowSpec(scheme="pbe", channel=trace)]),
        "busy_2cc_bbr": (
            Scenario(name="fp-bbr-2cc", aggregated_cells=2,
                     mean_sinr_db=19.0, busy=True, background_users=2,
                     duration_s=duration_s, seed=15),
            [FlowSpec(scheme="bbr")]),
        "faulted_2cc_pbe": (
            Scenario(name="fp-faults-2cc", aggregated_cells=2,
                     mean_sinr_db=17.0, busy=True, background_users=2,
                     duration_s=duration_s, seed=16),
            [FlowSpec(scheme="pbe", faults=faults)]),
        "mixed_1cc_five_schemes": (
            Scenario(name="fp-mixed-1cc", aggregated_cells=1,
                     mean_sinr_db=15.0, busy=True, background_users=2,
                     cqi_delay_subframes=4, duration_s=duration_s,
                     seed=17),
            mixed),
        "outage_2cc_pbe": (
            Scenario(name="fp-outage-2cc", aggregated_cells=2,
                     mean_sinr_db=18.0, busy=True, background_users=2,
                     duration_s=duration_s, seed=18),
            [FlowSpec(scheme="pbe", faults={
                "seed": 19, "outage_enter_rate": 0.02,
                "outage_mean_subframes": 3.0})]),
    }
