"""Metro matrix assembly and human-readable summaries.

The matrix is the machine-readable product of a metro run: one row per
scenario cell (in cell-id order) carrying the fairness and capacity
measurements of §6.4 — Jain index over the cell's coexistence fleet,
PBE capacity-tracking error, handover churn, fallback time — plus the
diurnal population counts.  It contains no wall-clock values, so two
runs with the same seed produce byte-identical files (including runs
resumed after SIGINT: rows are rebuilt from stored payloads).
"""

from __future__ import annotations

from .sets import MetroSet

#: Matrix document schema.
MATRIX_SCHEMA = "repro.metro/matrix/v1"


def build_matrix(mset: MetroSet, grid_dict: dict,
                 payloads: list[dict]) -> dict:
    """Merge shard payloads into the per-cell matrix document.

    ``payloads`` are successful shard payloads (any order); shards
    missing from it (failed jobs) are reported in ``missing_shards``.
    """
    rows = {}
    present = []
    for payload in payloads:
        present.append(payload["index"])
        for cell_id, row in payload["cells"].items():
            rows[int(cell_id)] = dict(row, cell_id=int(cell_id))
    cells = [rows[cell_id] for cell_id in sorted(rows)]

    fleet_cells = [row for row in cells if row["flows"]]
    pbe = [f for row in fleet_cells for f in row["flows"]
           if f["scheme"] == "pbe"]
    tracked = [f["capacity_error"] for f in pbe
               if f.get("capacity_error") is not None]
    summary = {
        "n_cells": len(cells),
        "busy_cells": sum(1 for row in cells if row["busy"]),
        "offered_users_total": sum(sum(row["offered_users"])
                                   for row in cells),
        "sim_users_peak": sum(max(row["sim_users"], default=0)
                              for row in cells),
        "handovers": sum(row["handovers_in"] for row in cells),
        "mean_jain_index": (
            sum(row["jain_index"] for row in fleet_cells)
            / len(fleet_cells) if fleet_cells else None),
        "mean_capacity_error": (sum(tracked) / len(tracked)
                                if tracked else None),
        "fallback_s_total": sum(f.get("fallback_s") or 0.0
                                for f in pbe),
    }
    return {
        "schema": MATRIX_SCHEMA,
        "set": mset.name,
        "seed": mset.seed,
        "hours": list(mset.hours),
        "hour_s": mset.hour_s,
        "scheduler_policy": mset.scheduler_policy,
        "grid": grid_dict,
        "shards_present": sorted(present),
        "missing_shards": [],   # filled by the driver on failures
        "summary": summary,
        "cells": cells,
    }


def format_summary(matrix: dict) -> str:
    """Human-readable digest of one matrix (busy cells + totals)."""
    lines = []
    summary = matrix["summary"]
    lines.append(
        f"metro set {matrix['set']!r}: {summary['n_cells']} cells "
        f"({summary['busy_cells']} busy), hours {matrix['hours']} at "
        f"{matrix['hour_s']} s/hour, policy {matrix['scheduler_policy']}")
    lines.append(
        f"  offered users (trace total): "
        f"{summary['offered_users_total']}, peak simulated background "
        f"users: {summary['sim_users_peak']}, handovers: "
        f"{summary['handovers']}")
    if matrix["missing_shards"]:
        lines.append(f"  MISSING shards: {matrix['missing_shards']} "
                     "(matrix is partial)")

    fleet_rows = [row for row in matrix["cells"] if row["flows"]]
    if fleet_rows:
        header = (f"  {'cell':>5} {'MHz':>5} {'peak':>5} {'jain':>6} "
                  f"{'cap.err':>8} {'fallbk_s':>8}  per-scheme Mbit/s")
        lines.append(header)
        for row in fleet_rows:
            pbe = [f for f in row["flows"] if f["scheme"] == "pbe"]
            err = (pbe[0].get("capacity_error")
                   if pbe and pbe[0].get("capacity_error") is not None
                   else None)
            fallback = pbe[0].get("fallback_s", 0.0) if pbe else 0.0
            tputs = " ".join(
                f"{f['scheme']}={f['throughput_mbps']:.1f}"
                for f in row["flows"])
            lines.append(
                f"  {row['cell_id']:>5} {row['bandwidth_mhz']:>5.0f} "
                f"{row['peak_users']:>5} {row['jain_index']:>6.3f} "
                f"{(f'{err:8.3f}' if err is not None else '       -')} "
                f"{fallback:>8.3f}  {tputs}")
        mean_jain = summary["mean_jain_index"]
        mean_err = summary["mean_capacity_error"]
        lines.append(
            f"  mean jain {mean_jain:.4f}" +
            (f", mean capacity error {mean_err:.3f}"
             if mean_err is not None else "") +
            f", total fallback {summary['fallback_s_total']:.3f} s")
    return "\n".join(lines)
