"""Every knob of the simulation's public surface, pinned by name.

An option earns its place when two callers outside the tests and
examples want different values (DESIGN.md, "The code id and the one
record of a finished job", its one-place-per-knob rule); a value only
tests set is a module constant, which a test patches.  This
inventory lists, in declaration order, every parameter of the
constructors, methods and drivers a simulation is configured through,
and every field of its config dataclasses.  Adding or renaming one is
meant to show up here as a diff, with its caller beside it.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.cell.basestation import CellularNetwork, _User
from repro.cell.ca_manager import CarrierAggregationManager
from repro.core.client import PbeClient
from repro.core.sender import PbeSender
from repro.faults import FaultSpec
from repro.harness import claims
from repro.harness.metrics import summarize_flow, windowed_throughput_bps
from repro.harness.runner import SCHEMES, FlowSpec
from repro.harness.scenarios import Scenario
from repro.monitor.pbe import PbeMonitor
from repro.net.link import FlowDemux
from repro.phy.error import retransmission_ber
from repro.traces.mobility import paper_trajectory

KNOB_INVENTORY = {
    # Config dataclasses.
    "Scenario": [
        "name", "carriers", "aggregated_cells", "mean_sinr_db",
        "fading_std_db", "busy", "background_users",
        "background_rate_range", "background_on_s", "background_off_s",
        "internet_rate_bps", "internet_delay_us", "uplink_delay_us",
        "uplink_batch_us", "internet_queue_packets", "scheduler_policy",
        "cqi_delay_subframes", "duration_s", "seed",
        "control_arrivals_by_cell"],
    "FlowSpec": [
        "scheme", "rnti", "start_s", "duration_s", "internet_delay_us",
        "channel", "cells", "shared_link", "log_allocations",
        "app_rate_bps", "cc_kwargs", "pbe_client_kwargs",
        "pbe_monitor_kwargs", "faults"],
    "FaultSpec": [
        "seed", "dci_miss_rate", "dci_false_rate", "outage_enter_rate",
        "outage_mean_subframes", "outages", "ack_loss_rate",
        "ack_dup_rate", "ack_reorder_rate", "ack_reorder_delay_us",
        "feedback_corrupt_rate"],
    # PBE-CC's three parts.
    "PbeSender": ["retx_margin_us"],
    "PbeClient": ["sim", "flow_id", "uplink", "monitor", "delay_margin_us"],
    "PbeMonitor": ["own_rnti", "cell_prbs", "primary_cell",
                   "own_rate_hint", "filter_control_users",
                   "averaging_window_override"],
    # The network.
    "CellularNetwork": ["sim", "carriers", "control_arrivals_per_subframe",
                        "scheduler_policy", "cqi_delay_subframes", "seed"],
    "CellularNetwork.add_user": ["rnti", "cells", "channel",
                                 "on_packet_block", "queue_packets",
                                 "log_allocations"],
    "CellularNetwork.add_exogenous_user": ["rnti", "cells", "channel",
                                           "demand", "queue_packets"],
    "CellularNetwork.handover": ["rnti", "new_cells", "channel"],
    # The scheme registry's constructors.
    "SCHEMES.pbe": ["retx_margin_us"],
    "SCHEMES.bbr": ["initial_rate_bps", "probe_rate_cap"],
    "SCHEMES.cubic": [],
    "SCHEMES.verus": [],
    "SCHEMES.sprout": [],
    "SCHEMES.copa": [],
    "SCHEMES.pcc": ["seed"],
    "SCHEMES.vivace": ["seed"],
    "SCHEMES.cbr": ["rate_bps", "schedule"],
    # Measurement.
    "summarize_flow": ["stats", "scheme"],
    "windowed_throughput_bps": ["stats"],
    # The claims registry's drivers, by function name.
    "run_stationary_sweep": ["schemes", "n_busy", "n_idle", "duration_s",
                             "base_seed", "runner"],
    "run_fig02": ["duration_s", "seed"],
    "run_fig05": ["duration_s", "seed"],
    "run_fig06": ["load_fractions", "tb_sizes_kbit", "duration_s",
                  "trials", "seed"],
    "run_fig07": ["duration_s", "background_users", "seed"],
    "run_fig08": ["loads_mbps", "duration_s", "seed"],
    "run_fig11": ["seed"],
    "run_fig13_14": ["schemes", "location_keys", "duration_s"],
    "run_fig16_17": ["schemes", "timeline_schemes", "duration_s",
                     "interval_s", "seed"],
    "run_fig18_19": ["schemes", "duration_s", "seed"],
    "run_fig20": ["schemes", "duration_s", "seed"],
    "run_fig21": ["time_scale", "seed", "variants"],
    "run_ablation": ["variants", "duration_s", "seed"],
    "run_fairness_policy": [],
    # Internals that once took a value no caller changed.
    "CarrierAggregationManager": [],
    "FlowDemux": [],
    "_User.fill_channel_block": ["now_us", "cqi_delay_subframes"],
    "retransmission_ber": ["ber", "attempt"],
    "paper_trajectory": ["fading_std_db", "time_scale", "seed"],
}


def _parameters(callable_) -> list[str]:
    return [name for name in inspect.signature(callable_).parameters
            if name != "self"]


def _inventory() -> dict[str, list[str]]:
    out = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
           for cls in (Scenario, FlowSpec, FaultSpec)}
    for cls in (PbeSender, PbeClient, PbeMonitor, CellularNetwork):
        out[cls.__name__] = _parameters(cls)
    for method in ("add_user", "add_exogenous_user", "handover"):
        out[f"CellularNetwork.{method}"] = _parameters(
            getattr(CellularNetwork, method))
    for scheme, factory in SCHEMES.items():
        out[f"SCHEMES.{scheme}"] = _parameters(factory)
    for function in (summarize_flow, windowed_throughput_bps):
        out[function.__name__] = _parameters(function)
    for figure in claims.FIGURES:
        out.setdefault(figure.driver.__name__, _parameters(figure.driver))
    out["CarrierAggregationManager"] = _parameters(CarrierAggregationManager)
    out["FlowDemux"] = _parameters(FlowDemux)
    out["_User.fill_channel_block"] = _parameters(_User.fill_channel_block)
    for function in (retransmission_ber, paper_trajectory):
        out[function.__name__] = _parameters(function)
    return out


def test_knob_inventory_is_pinned(capsys):
    inventory = _inventory()
    assert inventory == KNOB_INVENTORY
    settable = sum(len(names) for names in inventory.values())
    with capsys.disabled():
        print(f"\nsimulation knob inventory: {settable} settable values "
              f"on {len(inventory)} surfaces")
    assert settable == 136
