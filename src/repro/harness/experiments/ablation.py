"""Ablation benches for PBE-CC's design choices (DESIGN.md list).

Each variant disables one mechanism the paper argues for:

* ``no_averaging``   — instantaneous estimates instead of the §4.2.1
  RTprop-window averaging of Rw/Pa/Pidle.
* ``no_user_filter`` — count every detected user (including parameter-
  update bursts) in the fair-share denominator N.
* ``no_delay_margin``— Dth = Dprop (the "theoretical threshold" §4.2.2
  shows working poorly, flapping into the Internet state on HARQ
  jitter).
* ``bare_bdp_cwnd``  — no HARQ-stall margin in the congestion window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import FlowSummary
from ..runner import run_flow
from ..scenarios import Scenario

VARIANTS: dict[str, dict] = {
    "paper": {},
    "no_averaging": {
        "pbe_monitor_kwargs": {"averaging_window_override": 1}},
    "no_user_filter": {
        "pbe_monitor_kwargs": {"filter_control_users": False}},
    "no_delay_margin": {
        "pbe_client_kwargs": {"delay_margin_us": 0}},
    "bare_bdp_cwnd": {
        "cc_kwargs": {"retx_margin_us": 0}},
}


@dataclass
class AblationRow:
    variant: str
    summary: FlowSummary
    internet_fraction: float


@dataclass
class AblationResult:
    rows: list

    def row(self, variant: str) -> AblationRow:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise KeyError(variant)


def run_ablation(variants: tuple = tuple(VARIANTS),
                 duration_s: float = 6.0, seed: int = 53) -> AblationResult:
    """Run each PBE variant on the same busy cell."""
    rows = []
    for variant in variants:
        result = run_flow(
            Scenario(name=f"ablation-{variant}", aggregated_cells=2,
                     mean_sinr_db=17.0, busy=True, background_users=2,
                     duration_s=duration_s, seed=seed),
            "pbe", dict(VARIANTS[variant]))
        fractions = result.state_fractions or {}
        rows.append(AblationRow(variant, result.summary,
                                fractions.get("internet", 0.0)))
    return AblationResult(rows)
