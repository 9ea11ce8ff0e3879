"""The five benchmark workloads.

Every workload exposes the same steps — ``build`` (set-up, timed as
part of ``setup_s``), ``run`` (the timed repetition), then ``digest``,
``check`` and ``dispose`` outside the timed region — so ``run.py`` can
drive them with one loop.  All randomness comes from the ``seed`` handed to
``build``; ``run.py`` derives one such sub-seed per repetition from
``--seed``.

The package is driven through ``repro.harness``, ``repro.exec`` and
``repro.metro`` only; ``repro.phy`` is imported for one input type
(the Gauss-Markov channel) and one constant (the peak per-PRB rate the
throughput invariant needs).
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from clock import measure
from repro.exec import FleetBackend, canonical_json, is_failure, make_runner
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.checkpoint import CheckpointConfig, CheckpointManager
from repro.harness.experiments.sweep import (entry_from_payload,
                                             entry_to_dict, sweep_jobs)
from repro.harness.fingerprint import digest_run
from repro.metro import GridSpec, MetroSet, build_shard, shard_jobs
from repro.phy import SUBFRAME_US, GaussMarkovChannel, max_bits_per_prb

#: Worker processes of ``sweep_pool`` (= cores of the reference box).
POOL_WORKERS = 2


@dataclass
class Built:
    """A wired experiment ready to run (harness workloads).

    Same shape as what :func:`repro.metro.build_shard` returns
    (``experiment``, ``handles``, ``run()``), so the simulation
    workloads share their digest, check and summary code.
    """

    experiment: Experiment
    handles: list

    def run(self) -> list:
        return self.experiment.run()


@dataclass
class Outcome:
    """What checking one repetition found, as ``run.py`` consumes it."""

    #: Invariant violations (empty = the repetition passed).
    failures: list
    #: ``(throughput_mbps, p95_delay_ms)`` per PBE flow.
    pbe: list
    #: The same per BBR flow, where the workload compares the two.
    bbr: list = field(default_factory=list)
    #: Operations beyond the repetition itself (jobs on ``sweep_pool``).
    extra_ops: int = 0
    #: Per-layer counts read from public state (traced pass only).
    counts: dict = field(default_factory=dict)


def flow_failures(built, results: list) -> list:
    """Check (b): per-flow physical invariants of one simulation."""
    scenario = built.experiment.scenario
    carriers = {c.cell_id: c for c in scenario.carriers}
    failures = []
    for handle, result in zip(built.handles, results):
        spec, stats = handle.spec, result.stats
        tag = f"{scenario.name}/{spec.scheme}@{spec.rnti}"
        if stats.packets == 0:
            failures.append(f"{tag}: no packet delivered")
            continue
        if stats.packets > result.sent_packets:
            failures.append(f"{tag}: delivered {stats.packets} > sent "
                            f"{result.sent_packets}")
        wired = (spec.internet_delay_us
                 if spec.internet_delay_us is not None
                 else scenario.internet_delay_us)
        least_us = min(stats.delay_us)
        if least_us < wired + SUBFRAME_US:
            failures.append(f"{tag}: one-way delay {least_us} us < wired "
                            f"{wired} us + 1 subframe on the air")
        cells = spec.cells or scenario.device_cells
        peak_bps = sum(carriers[c].total_prbs for c in cells) \
            * max_bits_per_prb() * 1_000
        if result.summary.average_throughput_bps > peak_bps:
            failures.append(
                f"{tag}: throughput "
                f"{result.summary.average_throughput_bps:.0f} bit/s > "
                f"carriers' peak {peak_bps} bit/s")
    return failures


def flow_counts(built) -> dict:
    """Per-layer counts from UE / sender / decoder / injector state."""
    network = built.experiment.network
    tbs = abandoned = sent = lost = messages = subframes = 0
    forwarded = dropped = 0
    for handle in built.handles:
        ue = network.user(handle.spec.rnti).ue
        tbs += ue.delivered_tbs + ue.abandoned_tbs
        abandoned += ue.abandoned_tbs
        sent += handle.sender.sent_packets
        lost += handle.sender.lost_packets
        if handle.monitor is not None:
            for decoder in handle.monitor.decoders.values():
                messages += decoder.messages_decoded
                subframes += decoder.subframes_decoded
        if handle.impaired_pipe is not None:
            pipe = handle.impaired_pipe.stats()
            forwarded += pipe["forwarded"]
            dropped += pipe["dropped"]
    return {"tbs": tbs, "abandoned_tbs": abandoned, "sent": sent,
            "lost": lost, "messages": messages, "subframes": subframes,
            "pipe_forwarded": forwarded, "pipe_dropped": dropped}


class SimulationWorkload:
    """One experiment per repetition, run in this process."""

    #: Spans are recorded inside the simulation (it runs in-process).
    traces_layers = True

    def __init__(self, name: str, why: str, rep_host_s: float,
                 sim_s: float, build, build_span: str = "harness.build",
                 extras=None) -> None:
        self.name = name
        self.why = why
        #: Wall seconds one repetition takes on the reference box; sets
        #: how many repetitions ``--seconds`` buys.
        self.rep_host_s = rep_host_s
        #: Simulated seconds one repetition covers.
        self.sim_s = sim_s
        self.build = build
        #: Span the traced pass records ``build`` under.
        self.build_span = build_span
        #: ``extras(seed, workdir, plain_wall_s)``: workload-specific
        #: per-layer numbers from one extra repetition.
        self.extras = extras or (lambda seed, workdir, plain_wall_s: {})

    def run(self, built) -> list:
        return built.run()

    def digest(self, built, results: list) -> str:
        return digest_run(built.experiment, built.handles, results)

    def check(self, built, results: list) -> Outcome:
        pbe = [(r.summary.average_throughput_bps / 1e6,
                r.summary.p95_delay_ms)
               for r in results if r.spec.scheme == "pbe"]
        return Outcome(failures=flow_failures(built, results), pbe=pbe,
                       counts=flow_counts(built))

    def dispose(self, built) -> None:
        pass

    def check_run(self, outcomes: list) -> list:
        """Invariants over a whole run's repetitions (none here)."""
        return []


def build_busy_pbe(seed: int, workdir: Path) -> Built:
    scenario = Scenario(name="busy_pbe", aggregated_cells=2,
                        mean_sinr_db=18.0, busy=True, background_users=4,
                        duration_s=4.0, seed=seed)
    experiment = Experiment(scenario)
    return Built(experiment, [experiment.add_flow(FlowSpec(scheme="pbe"))])


def build_idle_3cc(seed: int, workdir: Path) -> Built:
    scenario = Scenario(name="idle_3cc", aggregated_cells=3,
                        mean_sinr_db=23.0, busy=False, duration_s=2.5,
                        seed=seed)
    experiment = Experiment(scenario)
    return Built(experiment, [experiment.add_flow(FlowSpec(scheme="pbe"))])


def build_mixed_cell(seed: int, workdir: Path) -> Built:
    scenario = Scenario(name="mixed_cell", aggregated_cells=1,
                        mean_sinr_db=15.0, busy=True, background_users=2,
                        cqi_delay_subframes=4, duration_s=4.0, seed=seed)
    experiment = Experiment(scenario)
    faults = {"seed": seed, "dci_miss_rate": 0.05,
              "dci_false_rate": 0.002, "ack_loss_rate": 0.01}
    handles = []
    for i, scheme in enumerate(("pbe", "bbr", "cubic", "copa")):
        # 2 dB of shadowing: at 3 dB the PBE flow's p95 delay spans
        # 47-166 ms between seeds and no run-level statistic is steady.
        channel = GaussMarkovChannel(mean_sinr_db=15.0, std_db=2.0,
                                     memory=0.9, coherence_us=8_000,
                                     seed=seed + 1 + i)
        handles.append(experiment.add_flow(FlowSpec(
            scheme=scheme, rnti=100 + i, channel=channel,
            faults=faults if scheme == "pbe" else None)))
    return Built(experiment, handles)


def build_metro_sparse(seed: int, workdir: Path):
    mset = MetroSet(
        name="bench-sparse", description="sparse metro bench shard",
        grid=GridSpec(name="bench-sparse", n_cells=240,
                      hotspot_fraction=0.005, seed=seed),
        hours=(3, 14), hour_s=1.0, shard_cells=240, users_scale=0.005,
        max_users_per_cell=2, walkers_per_shard=0, fleet=("pbe",),
        seed=seed)
    (job,) = shard_jobs(mset)
    return build_shard(job.params)


@dataclass
class BuiltSweep:
    jobs: list
    runner: object
    cache_dir: Path


def _pbe_and_bbr(entries: list) -> tuple:
    rows = {scheme: [(e["summary"]["average_throughput_bps"] / 1e6,
                      e["summary"]["p95_delay_ms"])
                     for e in entries if e["scheme"] == scheme]
            for scheme in ("pbe", "bbr")}
    return rows["pbe"], rows["bbr"]


class SweepWorkload:
    """The Table-1 sweep through a 2-worker pool and a fresh store."""

    name = "sweep_pool"
    why = ("only workload with exec on the critical path: pickling, pool "
           "spawn, store and journal; cold writes beside warm reads")
    rep_host_s = 1.1
    build_span = "harness.build"
    #: PBE + BBR on 2 busy + 1 idle locations, 2 simulated s each.
    schemes = ("pbe", "bbr")
    n_busy, n_idle, flow_s = 2, 1, 2.0
    sim_s = 2 * 3 * 2.0
    #: The simulations run in worker processes: no in-process spans.
    traces_layers = False

    def build(self, seed: int, workdir: Path) -> BuiltSweep:
        cache_dir = workdir / f"sweep-{seed}"
        jobs = sweep_jobs(self.schemes, n_busy=self.n_busy,
                          n_idle=self.n_idle, duration_s=self.flow_s,
                          base_seed=seed)
        runner = make_runner(jobs=POOL_WORKERS, cache_dir=cache_dir)
        return BuiltSweep(jobs, runner, cache_dir)

    def run(self, built: BuiltSweep) -> list:
        """The cold pass: every job executes and is stored."""
        return built.runner.run(built.jobs)

    def digest(self, built: BuiltSweep, payloads: list) -> str:
        return hashlib.sha256(
            canonical_json(self._entries(built, payloads)).encode()
        ).hexdigest()

    @staticmethod
    def _entries(built: BuiltSweep, payloads: list) -> list:
        return [entry_to_dict(entry_from_payload(job, payload))
                for job, payload in zip(built.jobs, payloads)
                if not is_failure(payload)]

    def check(self, built: BuiltSweep, payloads: list) -> Outcome:
        """Check (c): no job failure and a fully warm second pass."""
        cold = built.runner.stats
        n_jobs = len(built.jobs)
        failures = [f"job failed: {p.label}: {p.message}"
                    for p in payloads if is_failure(p)]
        warm_runner = make_runner(jobs=POOL_WORKERS,
                                  cache_dir=built.cache_dir)
        t0 = time.perf_counter()
        warm_payloads = warm_runner.run(built.jobs)
        warm_s = time.perf_counter() - t0
        warm = warm_runner.stats
        if warm.cache_hits != n_jobs:
            failures.append(
                f"warm pass: {warm.cache_hits}/{n_jobs} cache hits")
        entries = self._entries(built, payloads)
        if (canonical_json(self._entries(built, warm_payloads))
                != canonical_json(entries)):
            failures.append("warm payloads differ from cold payloads")
        pbe, bbr = _pbe_and_bbr(entries)
        counts = {"jobs": n_jobs, "jobs_executed": cold.executed,
                  "job_wall_s": sum(cold.job_wall_s),
                  "cold_wall_s": cold.wall_s, "cold_passes": 1,
                  "retries": cold.retries, "warm_s": warm_s,
                  "warm_hits": warm.cache_hits}
        return Outcome(failures=failures, pbe=pbe, bbr=bbr,
                       extra_ops=n_jobs, counts=counts)

    def check_run(self, outcomes: list) -> list:
        """The paper's ordering, over all of a run's sweeps.

        Checked per run, not per sweep: one sweep is three 2-second
        flows per scheme, and roughly one seed in a hundred puts a
        single sweep's PBE throughput below 0.9 x BBR.
        """
        pbe = [flow for o in outcomes for flow in o.pbe]
        bbr = [flow for o in outcomes for flow in o.bbr]
        if not pbe or not bbr:
            return ["paper ordering: no PBE/BBR flow to compare"]
        pbe_tput, pbe_delay = map(statistics.mean, zip(*pbe))
        bbr_tput, bbr_delay = map(statistics.mean, zip(*bbr))
        failures = []
        if not pbe_delay < bbr_delay:
            failures.append(f"paper ordering: PBE p95 delay {pbe_delay:.1f}"
                            f" ms not below BBR {bbr_delay:.1f} ms")
        if not pbe_tput >= 0.9 * bbr_tput:
            failures.append(f"paper ordering: PBE throughput {pbe_tput:.1f}"
                            f" < 0.9 x BBR {bbr_tput:.1f} Mbit/s")
        return failures

    def dispose(self, built: BuiltSweep) -> None:
        shutil.rmtree(built.cache_dir, ignore_errors=True)

    def extras(self, seed: int, workdir: Path, pool_wall_s: float) -> dict:
        """The same jobs once through a 2-worker fleet.

        ``pool_wall_s`` is the pool's cold pass on the same seed, in
        seconds at reference speed (see ``clock.py``).
        """
        root = workdir / f"fleet-{seed}"
        built = self.build(seed, workdir)
        backend = FleetBackend(root, local_workers=POOL_WORKERS)
        runner = make_runner(jobs=POOL_WORKERS, backend=backend)
        try:
            fleet = measure(runner.run, built.jobs)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {"exec.fleet.overhead_ratio": fleet.ref_wall_s / pool_wall_s}


def checkpoint_extras(build, seed: int, workdir: Path,
                      plain_wall_s: float) -> dict:
    """One repetition under :class:`CheckpointManager`.

    ``plain_wall_s`` is the same seed's plain repetition, in seconds at
    reference speed (see ``clock.py``).
    """
    directory = workdir / f"ckpt-{seed}"
    built = build(seed, workdir)
    manager = CheckpointManager(CheckpointConfig(directory=str(directory)))
    try:
        saving = measure(built.experiment.run, manager)
        snapshot = max((p.stat().st_size for p in directory.glob("ckpt-*")),
                       default=0)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"harness.checkpoint.overhead_frac":
                saving.ref_wall_s / plain_wall_s - 1.0,
            "harness.checkpoint.snapshot_kb": snapshot / 1024.0}


WORKLOADS = {w.name: w for w in (
    SimulationWorkload(
        "busy_pbe",
        "per-subframe work dominates: cell tick, scheduler, control "
        "traffic, HARQ and 2-cell monitor ingest (the north-star loop)",
        rep_host_s=1.0, sim_s=4.0, build=build_busy_pbe,
        extras=functools.partial(checkpoint_extras, build_busy_pbe)),
    SimulationWorkload(
        "idle_3cc",
        "per-packet work dominates (~19k packets/sim-s): event heap, "
        "link, pacing, ACK clock, client, queues; scheduler nearly idle",
        rep_host_s=1.0, sim_s=2.5, build=build_idle_3cc),
    SimulationWorkload(
        "mixed_cell",
        "PBE+BBR+CUBIC+Copa on fading channels with DCI/ACK faults: "
        "the only user of the cc block paths and the degraded "
        "monitor/uplink paths",
        rep_host_s=1.0, sim_s=4.0, build=build_mixed_cell),
    SweepWorkload(),
    SimulationWorkload(
        "metro_sparse",
        "240 carriers, almost all unobservable: stresses the idle-cell "
        "skip / advance_idle path and metro set-up",
        rep_host_s=0.45, sim_s=2.0, build=build_metro_sparse,
        build_span="metro.build"),
)}
