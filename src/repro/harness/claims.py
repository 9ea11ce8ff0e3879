"""The paper's claims as data: one registry feeds the shape gate
(``benchmarks/``), the paper-scale record (``results/paper.json``,
written by ``scripts/record_experiments.py``), the result blocks
generated into EXPERIMENTS.md and README.md, and ``repro experiment``
(a figure at reduced scale, one :func:`claim_line` per claim).

A :class:`Figure` names a driver and its keyword arguments at two
scales: ``reduced`` (the gate: fewer locations, shorter flows) and
``paper`` (the paper's setup).  Figures whose driver and arguments
match share one run: the stationary sweep feeds Table 1, Figure 12 and
Figure 15, whose claims reduce the :class:`SweepResult` itself.  Each
:class:`Claim` under a figure reduces the driver's result to one
number — the worst case where the shape quantifies over
locations, points or series — and holds when that number meets its
bound.  ``paper`` is the paper's own value of that number, or ``None``
where the paper gives only a shape.  A claim the gate is known to miss
carries an ``xfail`` reason that names the ROADMAP item owning it.

This module stays out of ``repro.harness``' ``__init__``: importing it
imports every driver.
"""

from __future__ import annotations

import operator
import textwrap
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from ..exec import is_failure, make_runner
from . import experiments as exp
from .experiments.policy import run_fairness_policy
from .experiments.sweep import sweep_jobs, sweep_result
from .experiments.table1 import PAPER_TABLE1
from .metrics import jain_index
from .serialize import code_id, fingerprint_of

SCHEMA = 1
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    id: str
    op: str                 #: one of ``_OPS``, or "in" (open interval)
    bound: Any
    #: The reduction of the figure's result to one number.
    value: Callable[[Any], Any]
    paper: float | None = None
    xfail: str | None = None

    def measure(self, result) -> float | None:
        value = self.value(result)
        return None if value is None else float(value)

    def holds(self, value: float | None) -> bool:
        if value is None:
            return False
        if self.op == "in":
            return bool(self.bound[0] < value < self.bound[1])
        return bool(_OPS[self.op](value, self.bound))


@dataclass(frozen=True)
class Figure:
    name: str
    driver: Callable
    reduced: dict
    paper: dict
    claims: tuple


_tput = attrgetter("average_throughput_bps")
_med = attrgetter("median_delay_ms")


def _table1(baseline, cond, field):
    return lambda r: getattr(exp.table1_from_sweep(r).row(baseline, cond),
                             field)


def _median_ratio(metric, scheme):
    """PBE's median over ``scheme``'s median, across the sweep's
    locations, of one ``summary`` metric (Figure 12's CDFs); ``None``
    where the sweep ran only one of the two."""
    def ratio(r):
        pbe, other = ([getattr(e.summary, metric) for e in r.for_scheme(s)]
                      for s in ("pbe", scheme))
        return np.median(pbe) / np.median(other) if pbe and other else None
    return ratio


def _ca_share(scheme):
    """The share of ``scheme``'s multi-carrier locations at which it
    triggered carrier aggregation (Figure 15); ``None`` where it ran at
    none."""
    def share(r):
        eligible = [e for e in r.for_scheme(scheme)
                    if e.aggregated_cells > 1]
        if not eligible:
            return None
        return sum(e.ca_activations > 0 for e in eligible) / len(eligible)
    return share


def _worst(agg, metric, num, den):
    """``agg`` over Figures 13-14's locations of ``num`` / ``den``."""
    return lambda r: agg(metric(by[num]) / metric(by[den])
                         for by in r.locations.values())


def _ratio(metric, num, den):
    """``num`` over ``den`` of one ``summaries`` metric (Figs. 16, 18)."""
    return lambda r: (getattr(r.summaries[num], metric)
                      / getattr(r.summaries[den], metric))


def _fig13d(r):
    return r.summary("fig13d_3cc_indoor_idle", "pbe")


def _fig17(r):
    """PBE's 2-second medians, the trajectory's ends trimmed."""
    pbe = next(t for t in r.timelines if t.scheme == "pbe")
    return np.asarray(pbe.throughput_mbps[1:-1])


def _fig17_peak_delay(r):
    pbe, bbr = (next(t for t in r.timelines if t.scheme == s).delay_ms
                for s in ("pbe", "bbr"))
    return max(pbe) / max(d for d in bbr if d)


def _fig20_delay(flow):
    return lambda r: _med(r.pairs["pbe"][flow]) / _med(r.pairs["bbr"][flow])


def _retx(r, index):
    """Retransmitted share of Figure 8's ``index``-th load, by load."""
    s = sorted(r.series, key=attrgetter("offered_mbps"))[index]
    return s.one_retx_fraction + s.more_fraction


def _growth(points, group, along, metric):
    """Worst (last − first) of ``metric`` along ``along``, per
    ``group``."""
    groups: dict = {}
    for point in points:
        groups.setdefault(getattr(point, group), []).append(point)
    ends = [sorted(g, key=attrgetter(along)) for g in groups.values()]
    return min(getattr(g[-1], metric) - getattr(g[0], metric)
               for g in ends)


def _ablation(variant):
    tput = attrgetter("summary.average_throughput_bps")
    return lambda r: tput(r.row(variant)) / tput(r.row("paper"))


def _copa(what: str | None) -> str | None:
    """An xfail reason for a Copa claim, with its reduced-scale value."""
    return what and (f"ROADMAP item 5: {what}; the collapse waits on a "
                     "spec-grounded LTE uplink")


_SWEEP = {"schemes": ("pbe", "bbr", "cubic", "verus", "copa")}
_SWEEP_REDUCED = {**_SWEEP, "n_busy": 5, "n_idle": 3, "duration_s": 6.0}
_SWEEP_PAPER = {**_SWEEP, "n_busy": 25, "n_idle": 15, "duration_s": 20.0}
_TABLE1_XFAIL = {
    ("copa", "busy", "tput_speedup"):
        "Copa's busy throughput deficit is 2.40",
    ("copa", "idle", "tput_speedup"):
        "Copa's idle throughput deficit is 2.09",
    ("copa", "busy", "p95_reduction"):
        "Copa's busy p95 delay is 1.08x PBE's, not below it"}

FIGURES = (
    Figure("table1", exp.run_stationary_sweep, _SWEEP_REDUCED,
           _SWEEP_PAPER, claims=tuple(
        Claim(f"table1.{base}.{cond}.{name}", op, bound,
              _table1(base, cond, field), PAPER_TABLE1[base, cond][col],
              _copa(_TABLE1_XFAIL.get((base, cond, name))))
        for cond in ("busy", "idle")
        for base, name, field, col, op, bound in (
            ("bbr", "tput_speedup", "throughput_speedup", 0, ">", 0.90),
            ("bbr", "p95_reduction", "p95_delay_reduction", 1, ">", 1.3),
            ("bbr", "avg_reduction", "avg_delay_reduction", 2, ">", 1.2),
            ("verus", "p95_reduction", "p95_delay_reduction", 1, ">",
             2.0),
            ("copa", "tput_speedup", "throughput_speedup", 0, ">", 3.0),
            ("copa", "p95_reduction", "p95_delay_reduction", 1, "<",
             1.0)))),
    Figure("fig12", exp.run_stationary_sweep, _SWEEP_REDUCED,
           _SWEEP_PAPER, claims=(
        *(Claim(f"fig12.{s}.median_tput_ratio", ">", 0.9,
                _median_ratio("average_throughput_mbps", s))
          for s in ("bbr", "cubic", "verus")),
        *(Claim(f"fig12.{s}.median_p95_ratio", "<", bound,
                _median_ratio("p95_delay_ms", s))
          for s, bound in (("bbr", 0.75), ("cubic", 0.5),
                           ("verus", 0.5))))),
    Figure("fig15", exp.run_stationary_sweep, _SWEEP_REDUCED,
           _SWEEP_PAPER, claims=tuple(
        Claim(f"fig15.{s}.ca_share", op, bound, _ca_share(s), xfail=xfail)
        for s, op, bound, xfail in (
            ("pbe", ">=", 0.8, None), ("bbr", ">=", 0.8, None),
            ("cubic", ">=", 0.8, None),
            ("copa", "<=", 0.3,
             _copa("Copa triggers CA at 2 of 5 eligible locations"))))),
    Figure("fig02", exp.run_fig02, {}, {}, claims=(
        Claim("fig02.activation_s", "in", (0.05, 0.4),
              attrgetter("activation_s"), 0.13),
        Claim("fig02.deactivation_s", "in", (2.0, 3.5),
              attrgetter("deactivation_s")),
        Claim("fig02.peak_over_steady_delay", ">", 2,
              lambda r: r.peak_delay_ms / r.steady_delay_ms))),
    Figure("fig05", exp.run_fig05, {}, {}, claims=(
        Claim("fig05.detection_ms", "<", 150.0,
              attrgetter("detection_latency_ms")),
        Claim("fig05.occupation_ms", "<", 300.0,
              attrgetter("occupation_latency_ms")),
        Claim("fig05.limited_user_change_mbps", "<", 1.0,
              lambda r: abs(r.limited_after_mbps
                            - r.limited_before_mbps)))),
    Figure("fig06", exp.run_fig06, {}, {}, claims=(
        Claim("fig06.retx_overhead_growth_pct", ">=", 0,
              lambda r: _growth(r.overhead, "sinr_db", "offered_mbps",
                                "retransmission_pct")),
        # pytest.approx(6.8)'s default tolerance: 1e-6 relative.
        Claim("fig06.protocol_overhead_error_pct", "<=", 6.8e-6,
              lambda r: max(abs(p.protocol_pct - 6.8)
                            for p in r.overhead), 0.0),
        Claim("fig06.tbler_fit_error", "<=", 0.03,
              lambda r: max(abs(p.empirical - p.theory)
                            for p in r.tbler)),
        Claim("fig06.tbler_growth", ">", 0,
              lambda r: _growth(r.tbler, "ber", "tb_bits", "theory")))),
    Figure("fig07", exp.run_fig07, {"duration_s": 8.0},
           {"duration_s": 20.0}, claims=(
        Claim("fig07.mean_detected", "in", (10.0, 25.0),
              attrgetter("mean_detected"), 15.8),
        Claim("fig07.mean_filtered", "<", 5.0, attrgetter("mean_filtered"),
              1.3),
        Claim("fig07.max_filtered", "<=", 8,
              lambda r: max(r.filtered_counts), 7),
        Claim("fig07.single_subframe_share", "in", (0.55, 0.85),
              attrgetter("frac_single_subframe"), 0.682))),
    Figure("fig08", exp.run_fig08, {}, {}, claims=(
        Claim("fig08.retx_growth", ">", 0,
              lambda r: _retx(r, -1) - _retx(r, 0)),
        Claim("fig08.light_retx_share", "<", 0.10, lambda r: _retx(r, 0)),
        Claim("fig08.heavy_retx_share", ">", 0.10, lambda r: _retx(r, -1)),
        Claim("fig08.floor_spread_ms", "<", 5.0,
              lambda r: (max(s.min_delay_ms for s in r.series)
                         - min(s.min_delay_ms for s in r.series))))),
    Figure("fig11", exp.run_fig11, {}, {}, claims=(
        Claim("fig11.20mhz.peak_users", "in", (140, 230),
              lambda r: r.peak_average("20MHz"), 181),
        Claim("fig11.10mhz.peak_users", "in", (70, 130),
              lambda r: r.peak_average("10MHz"), 97),
        Claim("fig11.10mhz.night_users", "==", 0,
              lambda r: max(r.hourly_counts["10MHz"][:3]), 0),
        Claim("fig11.20mhz.midnight_users", ">", 0,
              lambda r: r.hourly_counts["20MHz"][0]),
        Claim("fig11.20mhz.low_rate_share", "in", (0.6, 0.9),
              lambda r: r.frac_below_half_peak("20MHz"), 0.774),
        Claim("fig11.10mhz.low_rate_share", "in", (0.6, 0.9),
              lambda r: r.frac_below_half_peak("10MHz"), 0.719),
        Claim("fig11.20mhz.max_rate", "<=", 1.85,
              lambda r: max(r.user_rates["20MHz"])))),
    Figure("fig13_14", exp.run_fig13_14,
           {"duration_s": 6.0,
            "location_keys": ("fig13b_2cc_indoor_busy",
                              "fig13d_3cc_indoor_idle",
                              "fig14a_2cc_outdoor_busy")},
           {"duration_s": 20.0}, claims=(
        Claim("fig13_14.bbr.tput_ratio", ">", 0.85,
              _worst(min, _tput, "pbe", "bbr")),
        Claim("fig13_14.bbr.median_delay_ratio", "<", 1,
              _worst(max, _med, "pbe", "bbr")),
        *(Claim(f"fig13_14.{s}.tput_ratio", "<", 0.6,
                _worst(max, _tput, s, "pbe"))
          for s in ("copa", "sprout", "vivace")),
        Claim("fig13_14.verus.median_delay_ratio", ">", 2,
              _worst(min, _med, "verus", "pbe")),
        Claim("fig13d.pbe.delay_spread_ms", "<", 15.0,
              lambda r: (_fig13d(r).delay_percentiles_ms[90]
                         - _fig13d(r).delay_percentiles_ms[10])),
        Claim("fig13d.pbe.tput_spread", "<", 1.5,
              lambda r: (_fig13d(r).throughput_percentiles_bps[90]
                         / _fig13d(r).throughput_percentiles_bps[10])))),
    Figure("fig16_17", exp.run_fig16_17,
           {"duration_s": 16.0, "interval_s": 0.8},
           {"duration_s": 40.0, "interval_s": 2.0}, claims=(
        Claim("fig16.bbr.tput_ratio", ">", 0.85,
              _ratio("average_throughput_bps", "pbe", "bbr"), 55 / 55),
        Claim("fig16.bbr.p95_ratio", "<", 0.7,
              _ratio("p95_delay_ms", "pbe", "bbr"), 64 / 156),
        *(Claim(f"fig16.{s}.tput_ratio", "<", 0.5,
                _ratio("average_throughput_bps", s, "pbe"), xfail=xfail)
          for s, xfail in (("copa", _copa("Copa keeps 91.3 of PBE's "
                                          "167.1 Mbit/s under mobility")),
                           ("sprout", None), ("vivace", None))),
        Claim("fig17.pbe.dip", "<", 0.7,
              lambda r: _fig17(r).min() / _fig17(r)[:3].mean()),
        Claim("fig17.pbe.recovery", ">", 0.8,
              lambda r: _fig17(r)[-3:].mean() / _fig17(r)[:3].mean()),
        Claim("fig17.bbr.peak_delay_ratio", "<", 1, _fig17_peak_delay))),
    Figure("fig18_19", exp.run_fig18_19, {"duration_s": 16.0},
           {"duration_s": 40.0}, claims=(
        Claim("fig18.bbr.tput_ratio", ">", 0.8,
              _ratio("average_throughput_bps", "pbe", "bbr"), 57 / 62),
        Claim("fig18.bbr.avg_delay_ratio", "<", 0.75,
              _ratio("average_delay_ms", "pbe", "bbr"), 61 / 147),
        Claim("fig18.bbr.p95_ratio", "<", 0.65,
              _ratio("p95_delay_ms", "pbe", "bbr"), 71 / 227),
        Claim("fig19.pbe.on_off_tput", "<", 0.8,
              lambda r: r.on_off_split["pbe"][0]
              / r.on_off_split["pbe"][1]))),
    Figure("fig20", exp.run_fig20, {"duration_s": 8.0},
           {"duration_s": 40.0}, claims=(
        Claim("fig20.pbe.balance", ">", 0.95, lambda r: r.balance("pbe"),
              jain_index([26, 28])),
        *(Claim(f"fig20.pbe.flow{i + 1}_tput_mbps", ">", 0,
                lambda r, i=i: r.pairs["pbe"][i].average_throughput_mbps,
                paper) for i, paper in enumerate((26, 28))),
        Claim("fig20.bbr.balance_gap", ">=", -0.02,
              lambda r: r.balance("pbe") - r.balance("bbr"),
              jain_index([26, 28]) - jain_index([10, 35])),
        *(Claim(f"fig20.bbr.flow{i + 1}_median_delay_ratio", "<", 1.1,
                _fig20_delay(i)) for i in (0, 1)))),
    Figure("fig21", exp.run_fig21, {"time_scale": 0.2},
           {"time_scale": 1.0}, claims=(
        Claim("fig21.multi_user.jain_2", ">", 0.97,
              lambda r: r.variant("multi_user").jain_2, 0.9997),
        *(Claim(f"fig21.{v}.jain_3", ">", bound,
                lambda r, v=v: r.variant(v).jain_3, paper)
          for v, bound, paper in (("multi_user", 0.95, 0.9873),
                                  ("rtt", 0.95, 0.9945),
                                  ("vs_bbr", 0.90, 0.9852),
                                  ("vs_cubic", 0.90, 0.9834))))),
    Figure("ablation", exp.run_ablation, {"duration_s": 6.0},
           {"duration_s": 20.0}, claims=(
        Claim("ablation.no_user_filter.tput_ratio", "<", 0.7,
              _ablation("no_user_filter")),
        Claim("ablation.no_delay_margin.internet_ratio", ">", 5,
              lambda r: (r.row("no_delay_margin").internet_fraction
                         / max(r.row("paper").internet_fraction, 0.01))),
        Claim("ablation.bare_bdp_cwnd.tput_ratio", "<", 1,
              _ablation("bare_bdp_cwnd")),
        Claim("ablation.no_averaging.tput_ratio", "<", 1.1,
              _ablation("no_averaging")))),
    Figure("policy", run_fairness_policy, {}, {}, claims=(
        Claim("policy.equal.prb_gap", "<", 0.15,
              lambda r: (abs(r.prbs["equal"][0] - r.prbs["equal"][1])
                         / max(r.prbs["equal"]))),
        Claim("policy.equal.tput_ratio", ">", 2,
              lambda r: r.tputs["equal"][0] / r.tputs["equal"][1]),
        Claim("policy.equal_rate.prb_ratio", ">", 1.5,
              lambda r: r.prbs["equal_rate"][1] / r.prbs["equal_rate"][0]),
        Claim("policy.equal_rate.jain_gain", ">", 0,
              lambda r: (jain_index(r.tputs["equal_rate"])
                         - jain_index(r.tputs["equal"]))))),
)


def by_name(name: str) -> Figure:
    """The figure called ``name``."""
    return next(f for f in FIGURES if f.name == name)


def claims():
    """Every ``(figure, claim)`` pair, in registry order."""
    return [(figure, claim) for figure in FIGURES
            for claim in figure.claims]


def measure(figure: Figure, scale: str, result) -> dict:
    """Every claim of the figures sharing ``figure``'s run at ``scale``
    measured on its ``result``, plus Table 1's rows for the sweep."""
    run = figure.driver, getattr(figure, scale)
    payload = {"measured": {
        claim.id: claim.measure(result) for f in FIGURES
        if (f.driver, getattr(f, scale)) == run for claim in f.claims}}
    if isinstance(result, exp.SweepResult):
        payload["table1"] = [
            {**asdict(r), "paper": list(r.paper)}
            for r in exp.table1_from_sweep(result).rows]
    return payload


@dataclass(frozen=True)
class Run:
    """A figure's driver run at ``scale``: one job of the runner.  It
    fingerprints the driver and its arguments, so figures that share a
    run share the job, and its payload is :func:`measure`'s."""

    figure: str
    scale: str
    label = property(attrgetter("figure"))

    def to_dict(self) -> dict:
        f = by_name(self.figure)
        return {"driver": f"{f.driver.__module__}.{f.driver.__qualname__}",
                "kwargs": getattr(f, self.scale)}

    def fingerprint(self) -> str:
        return fingerprint_of(self.to_dict())

    def execute(self) -> dict:
        figure = by_name(self.figure)
        return measure(figure, self.scale,
                       figure.driver(**getattr(figure, self.scale)))


class Runs:
    """Each figure's run at ``scale`` through ``runner``, at most once;
    ``payloads`` maps a figure's name to its payload.  The sweep runs as
    its flows, which a pool fans out and a cache keeps one by one."""

    def __init__(self, scale: str = "reduced", runner=None):
        self.scale, self.runner = scale, runner or make_runner()
        self.payloads: dict = {}

    def run(self, figures) -> None:
        """Run the figures not run yet in one runner pass.  Figures that
        share a run (its :class:`Run` fingerprint) submit its jobs once
        and all get its payload; a failed job raises, naming them."""
        groups: dict = {}
        for f in figures:
            if f.name not in self.payloads:
                groups.setdefault(Run(f.name, self.scale).fingerprint(),
                                  []).append(f)
        if not groups:
            return
        jobs = [sweep_jobs(**getattr(fs[0], self.scale))
                if fs[0].driver is exp.run_stationary_sweep
                else [Run(fs[0].name, self.scale)]
                for fs in groups.values()]
        payloads = iter(self.runner.run([j for js in jobs for j in js]))
        for fs, js in zip(groups.values(), jobs):
            done = [next(payloads) for _ in js]
            failure = next(filter(is_failure, done), None)
            if failure is not None:
                raise RuntimeError(
                    f"figure {'/'.join(f.name for f in fs)}: "
                    f"{failure.summary()}")
            payload = (measure(fs[0], self.scale, sweep_result(js, done))
                       if fs[0].driver is exp.run_stationary_sweep
                       else done[0])
            for f in fs:
                self.payloads[f.name] = payload


# ----------------------------------------------------------------------
# The record (``results/paper.json``) and the blocks generated from it
# ----------------------------------------------------------------------
def entries(runs: Runs, figure: Figure) -> list:
    """``figure``'s claims measured through ``runs``: one record entry
    per claim."""
    runs.run([figure])
    measured = runs.payloads[figure.name]["measured"]
    return [{"id": claim.id, "figure": figure.name, "paper": claim.paper,
             "measured": measured[claim.id], "op": claim.op,
             "bound": claim.bound, "holds": claim.holds(measured[claim.id]),
             "xfail": claim.xfail} for claim in figure.claims]


def claim_line(entry: dict) -> str:
    """One claim entry as a console line: ``repro experiment`` and
    ``scripts/record_experiments.py`` print these.  A known miss (a
    claim with an ``xfail`` reason) reads ``xfail``, a regression
    ``FAILS``."""
    verdict = ("holds" if entry["holds"] else
               "xfail" if entry["xfail"] else "FAILS")
    measured = "—" if entry["measured"] is None else entry["measured"]
    return (f"{entry['id']:45s} {measured!s:>22} {entry['op']} "
            f"{entry['bound']}  {verdict}")


def record(runs: Runs, commit: str) -> dict:
    """Every claim measured through ``runs``, as a JSON-ready dict."""
    runs.run(FIGURES)
    return {"schema": SCHEMA, "scale": runs.scale, "commit": commit,
            "code_id": code_id(),
            "figures": {f.name: getattr(f, runs.scale) for f in FIGURES},
            "table1": runs.payloads["table1"]["table1"],
            "claims": [e for f in FIGURES for e in entries(runs, f)]}


def _num(value) -> str:
    return "—" if value is None else f"{value:.3g}"


def _bound(entry) -> str:
    if entry["op"] == "in":
        return "in ({}, {})".format(*map(_num, entry["bound"]))
    return f"{entry['op']} {_num(entry['bound'])}"


def render_table1(data: dict) -> str:
    lines = ["| baseline | condition | locations | tput speedup (paper) "
             "| p95 delay red. (paper) | avg delay red. (paper) |",
             "|---|---|---|---|---|---|"]
    for r in data["table1"]:
        cells = (f"**{r[k]:.2f}** ({p:.2f})" for k, p in zip(
            ("throughput_speedup", "p95_delay_reduction",
             "avg_delay_reduction"), r["paper"]))
        lines.append(f"| {r['baseline']} | {r['condition']} | "
                     f"{r['locations']} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_claims(data: dict) -> str:
    lines = ["| claim | paper | measured | bound | verdict |",
             "|---|---|---|---|---|"]
    lines += [f"| `{e['id']}` | {_num(e['paper'])} | "
              f"{_num(e['measured'])} | {_bound(e)} | "
              + ("holds" if e["holds"] else
                 "xfail" if e["xfail"] else "**fails**") + " |"
              for e in data["claims"]]
    return "\n".join(lines)


def render_glance(data: dict) -> str:
    entries = data["claims"]
    row = {(r["baseline"], r["condition"]): r for r in data["table1"]}

    def pair(baseline, key, index):
        busy, idle = row[baseline, "busy"], row[baseline, "idle"]
        return (f"{busy[key]:.2f}× / {idle[key]:.2f}× (paper "
                f"{busy['paper'][index]:.2f} / {idle['paper'][index]:.2f})")

    def missed(known):
        return ", ".join(f"`{e['id']}`" for e in entries
                         if not e["holds"] and bool(e["xfail"]) == known)

    return textwrap.fill(
        f"At {data['scale']} scale (`results/paper.json`, code id "
        f"{data['code_id'][:12]}), {sum(e['holds'] for e in entries)} of "
        f"{len(entries)} claims hold.  Busy / idle, PBE-CC's throughput "
        f"is {pair('bbr', 'throughput_speedup', 0)} BBR's, at "
        f"{pair('bbr', 'p95_delay_reduction', 1)} lower p95 delay; "
        f"against Verus the p95 reduction is "
        f"{pair('verus', 'p95_delay_reduction', 1)}, and Copa's "
        f"throughput deficit is {pair('copa', 'throughput_speedup', 0)}."
        f"  Missed, and strict-xfail at reduced scale: "
        f"{missed(True) or 'none'}.  Missed otherwise: "
        f"{missed(False) or 'none'}.", 72)


#: Generated blocks per document, each between ``<!-- claims:NAME -->``
#: and ``<!-- /claims:NAME -->`` lines.
BLOCKS = {"EXPERIMENTS.md": {"table1": render_table1,
                             "claims": render_claims},
          "README.md": {"glance": render_glance}}


def _span(text: str, name: str) -> tuple[int, int]:
    begin = f"<!-- claims:{name} -->\n"
    start = text.index(begin) + len(begin)
    return start, text.index(f"\n<!-- /claims:{name} -->", start)


def generated(text: str, name: str) -> str:
    """The body of block ``name`` in ``text``."""
    start, end = _span(text, name)
    return text[start:end]


def regenerate(text: str, renders: dict, data: dict) -> str:
    """``text`` with each block in ``renders`` re-rendered from
    ``data``."""
    for name, render in renders.items():
        start, end = _span(text, name)
        text = text[:start] + render(data) + text[end:]
    return text
