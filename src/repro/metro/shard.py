"""One metro shard: a cell-group simulated end to end.

A shard is the unit of metro execution: a site-aligned group of cells
simulated as one :class:`repro.harness.Experiment` — diurnal
background populations attached and detached at hour boundaries,
walkers handing over between cells, and a PBE/cubic/BBR fairness fleet
on every busy cell.  :class:`MetroShardJob` wraps the shard's
parameter dictionary with a content fingerprint so shards run through
the supervised :mod:`repro.exec` machinery (process pool, result
cache, resume) exactly like single-flow jobs.

Everything the shard simulates is derived from ``params`` and the code
alone, so the fingerprint fully keys the result (:func:`shard_fingerprint`
digests a run for the equivalence tests against
``tests/reference_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..harness.metrics import jain_index
from ..harness.runner import Experiment, FlowSpec
from ..harness.scenarios import (BUSY_CONTROL_ARRIVALS,
                                 IDLE_CONTROL_ARRIVALS, Scenario)
from ..harness.serialize import fingerprint_of
from ..net.units import us_from_seconds
from ..phy.carrier import CarrierConfig
from ..phy.channel import StaticChannel
from ..traces.mobility import random_walk_trajectory
from ..traces.seeds import derived_seed
from ..traces.workload import OnOffRandomDemand
from .mobility import handovers_into, walker_plan
from .population import population_plan

#: Shard result payload schema.
SHARD_SCHEMA = "repro.metro/shard/v1"

#: RNTI layout inside one shard simulation.  Fleet flows sit in the
#: device-under-test range; background slots and walkers are far above
#: so the ranges can never collide (shards are site-aligned, at most a
#: few dozen cells).
FLEET_RNTI_BASE = 100
FLEET_RNTI_STRIDE = 8
BACKGROUND_RNTI_BASE = 10_000
BACKGROUND_RNTI_STRIDE = 64
WALKER_RNTI_BASE = 50_000


@dataclass
class MetroShardJob:
    """One fingerprinted cell-group job for the exec runner."""

    params: dict

    @property
    def label(self) -> str:
        return f"{self.params['set']}/shard{self.params['index']:02d}"

    def to_dict(self) -> dict:
        return {"kind": "metro-shard", "params": self.params}

    def fingerprint(self) -> str:
        return fingerprint_of(self.to_dict())

    def execute(self) -> dict:
        return run_shard(self.params)


class _ShardRun:
    """A wired-up shard experiment, ready to run."""

    def __init__(self, params: dict) -> None:
        self.params = params
        cells = params["cells"]
        hours = list(params["hours"])
        hour_s = float(params["hour_s"])
        seed = int(params["seed"])
        index = int(params["index"])
        duration_s = len(hours) * hour_s

        self.plan = population_plan(
            cells, hours, seed, float(params["users_scale"]),
            int(params["max_users_per_cell"]))
        self.walkers = walker_plan(
            cells, duration_s, int(params["walkers"]),
            derived_seed(seed, "metro-walkers", index))
        self.handovers_in = handovers_into(self.walkers)

        scenario = Scenario(
            name=f"{params['set']}-shard{index:02d}",
            carriers=[CarrierConfig(cell_id=c["cell_id"],
                                    bandwidth_mhz=c["bandwidth_mhz"],
                                    frequency_ghz=c["frequency_ghz"])
                      for c in cells],
            aggregated_cells=1,
            busy=False, background_users=0,
            scheduler_policy=params["scheduler_policy"],
            duration_s=duration_s,
            seed=derived_seed(seed, "metro-scenario", index) % (2 ** 31),
            control_arrivals_by_cell={
                c["cell_id"]: (BUSY_CONTROL_ARRIVALS if c["busy"]
                               else IDLE_CONTROL_ARRIVALS)
                for c in cells})
        self.experiment = Experiment(scenario)
        self._attach_population(cells, hours, hour_s, seed)
        self._attach_walkers(duration_s)
        self.handles = self._attach_fleets(cells, seed,
                                           list(params["fleet"]),
                                           duration_s)

    # ------------------------------------------------------------------
    def _attach_population(self, cells: list[dict], hours: list[int],
                           hour_s: float, seed: int) -> None:
        """Hour-boundary attach/detach of diurnal background users."""
        network = self.experiment.network
        sim = self.experiment.sim

        def set_count(ci: int, cell_id: int, epoch: int,
                      current: int, target: int) -> None:
            base = BACKGROUND_RNTI_BASE + ci * BACKGROUND_RNTI_STRIDE
            for slot in range(target, current):
                network.remove_user(base + slot)
            for slot in range(current, target):
                sinr = 6.0 + 18.0 * _unit(seed, "bg-sinr", cell_id,
                                          slot, epoch)
                network.add_exogenous_user(
                    base + slot, [cell_id],
                    StaticChannel(sinr, fading_std_db=1.0,
                                  seed=derived_seed(seed, "bg-fade",
                                                    cell_id, slot, epoch)),
                    OnOffRandomDemand(
                        mean_on_s=0.4, mean_off_s=0.8,
                        rate_range_bps=(2e6, 12e6),
                        seed=derived_seed(seed, "bg-demand", cell_id,
                                          slot, epoch)))

        for ci, cell in enumerate(cells):
            targets = self.plan[cell["cell_id"]]["sim"]
            current = 0
            for epoch, target in enumerate(targets):
                if epoch == 0:
                    set_count(ci, cell["cell_id"], 0, 0, target)
                elif target != current:
                    sim.schedule(us_from_seconds(epoch * hour_s),
                                 set_count, ci, cell["cell_id"], epoch,
                                 current, target)
                current = target

    def _attach_walkers(self, duration_s: float) -> None:
        network = self.experiment.network
        sim = self.experiment.sim
        for w, plan in enumerate(self.walkers):
            rnti = WALKER_RNTI_BASE + w
            network.add_exogenous_user(
                rnti, [plan["start_cell"]],
                random_walk_trajectory(duration_s,
                                       seed=plan["channel_seed"]),
                OnOffRandomDemand(mean_on_s=0.5, mean_off_s=1.0,
                                  rate_range_bps=(1e6, 8e6),
                                  seed=plan["demand_seed"]))
            for t_s, cell_id in plan["moves"]:
                sim.schedule(us_from_seconds(t_s),
                             network.handover, rnti, [cell_id])

    def _attach_fleets(self, cells: list[dict], seed: int,
                       fleet: list[str], duration_s: float) -> list:
        """A concurrent coexistence fleet on every busy cell."""
        handles = []
        busy_index = 0
        for cell in cells:
            if not cell["busy"]:
                continue
            for j, scheme in enumerate(fleet):
                rnti = (FLEET_RNTI_BASE
                        + busy_index * FLEET_RNTI_STRIDE + j)
                sinr = 13.0 + 10.0 * _unit(seed, "fleet-sinr",
                                           cell["cell_id"], scheme)
                channel = StaticChannel(
                    sinr, fading_std_db=1.0,
                    seed=derived_seed(seed, "fleet-fade",
                                      cell["cell_id"], scheme))
                handles.append(self.experiment.add_flow(FlowSpec(
                    scheme=scheme, rnti=rnti,
                    cells=[cell["cell_id"]], channel=channel)))
            busy_index += 1
        return handles

    # ------------------------------------------------------------------
    def run(self) -> list:
        return self.experiment.run()


def _unit(seed: int, *scope: object) -> float:
    """One deterministic uniform draw in [0, 1) for ``scope``."""
    return float(np.random.default_rng(
        derived_seed(seed, *scope)).random())


def build_shard(params: dict) -> _ShardRun:
    """Wire up (but do not run) one shard experiment."""
    return _ShardRun(params)


def run_shard(params: dict) -> dict:
    """Simulate one shard and return its JSON-ready payload.

    The payload carries one row per cell — fleet flow summaries, Jain
    index, PBE capacity-tracking error, fallback time, handover and
    diurnal population counts — which the reporting layer merges into
    the metro matrix.  No wall-clock values: payloads must be
    byte-identical across runs and across cache hits.
    """
    shard = build_shard(params)
    results = shard.run()
    network = shard.experiment.network

    per_cell_flows: dict = {}
    for handle, result in zip(shard.handles, results):
        cell_id = handle.spec.cells[0]
        summary = result.summary
        row = {
            "scheme": handle.spec.scheme,
            "throughput_mbps": summary.average_throughput_bps / 1e6,
            "mean_delay_ms": summary.average_delay_ms,
            "p95_delay_ms": summary.p95_delay_ms,
        }
        if handle.monitor is not None:
            report = handle.monitor.report(
                40, now_subframe=network.subframe)
            fair_bps = report.transport_fair_share_bps
            row["fair_share_mbps"] = fair_bps / 1e6
            row["capacity_error"] = (
                abs(summary.average_throughput_bps - fair_bps)
                / fair_bps if fair_bps > 0 else None)
            states = result.sender_states or {}
            row["fallback_s"] = states.get("fallback", 0.0)
        per_cell_flows.setdefault(cell_id, []).append(row)

    return _assemble_payload(params, shard, per_cell_flows)


def _assemble_payload(params: dict, shard: _ShardRun,
                      per_cell_flows: dict) -> dict:
    cells_out = {}
    for cell in params["cells"]:
        cell_id = cell["cell_id"]
        flows = per_cell_flows.get(cell_id, [])
        plan = shard.plan[cell_id]
        cells_out[str(cell_id)] = {
            "bandwidth_mhz": cell["bandwidth_mhz"],
            "frequency_ghz": cell["frequency_ghz"],
            "site": cell["site"],
            "busy": cell["busy"],
            "peak_users": cell["peak_users"],
            "off_hours": list(cell.get("off_hours", ())),
            "offered_users": list(plan["offered"]),
            "sim_users": list(plan["sim"]),
            "handovers_in": shard.handovers_in.get(cell_id, 0),
            "flows": flows,
            "jain_index": jain_index(
                [f["throughput_mbps"] for f in flows]),
        }
    return {
        "schema": SHARD_SCHEMA,
        "set": params["set"],
        "index": params["index"],
        "hours": list(params["hours"]),
        "hour_s": params["hour_s"],
        "walkers": len(shard.walkers),
        "handovers": sum(shard.handovers_in.values()),
        "cells": cells_out,
    }


def shard_fingerprint(params: dict) -> str:
    """SHA-256 digest of everything observable in one shard run
    (:func:`repro.harness.fingerprint.digest_run`; the ≥100-cell
    equivalence test compares it with the reference engine's)."""
    from ..harness.fingerprint import digest_run
    shard = build_shard(params)
    results = shard.run()
    return digest_run(shard.experiment, shard.handles, results)
