"""The resilience sweep: PBE-CC under decoder/feedback impairments.

The paper's §5 prototype decodes control channels with real CRC error
rates and §2's reverse path loses and compresses ACKs; this driver
quantifies how gracefully each scheme degrades when we inject those
faults.  It sweeps DCI miss-rate × decoder-outage-duration (plus a
fixed dose of ACK-path impairment) over a busy stationary cell and
reports, per cell of the grid, throughput relative to the same
scheme's unimpaired run and the time PBE-CC spent on its delay-based
fallback.

Each (scheme, miss, outage) run is an independent deterministic job —
the fault schedule is part of the job's content fingerprint — so the
sweep submits through :mod:`repro.exec` like the others: pass a
``runner`` from :func:`repro.exec.make_runner` to fan it over worker
processes or memoize completed runs.

Exposed on the command line as ``python -m repro resilience`` (with
``--smoke`` for the CI-sized variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...checks import require_int
from ...exec import Job, is_failure, make_runner
from ...faults import FaultSpec
from ..metrics import FlowSummary
from ..report import format_table
from ..scenarios import Scenario
from ..serialize import summary_from_dict

#: Reverse-path impairment applied to every impaired run (a fixed dose
#: of §2's lossy ACK channel, so the sweep axes stay two-dimensional).
ACK_LOSS_RATE = 0.01
FEEDBACK_CORRUPT_RATE = 0.005


def resilience_scenario(duration_s: float = 6.0,
                        base_seed: int = 400) -> Scenario:
    """The fixed busy-cell location every resilience run shares."""
    return Scenario(
        name="resilience-busy", aggregated_cells=2, mean_sinr_db=18.0,
        busy=True, background_users=3, duration_s=duration_s,
        seed=base_seed)


def fault_dict(miss_rate: float, outage_ms: int, duration_s: float,
               fault_seed: int = 0) -> dict | None:
    """The JSON fault spec for one grid cell (None = clean run).

    A non-zero outage is scheduled at the midpoint of the flow, so the
    run shows all three phases: healthy tracking, degraded/fallback
    operation, and recovery after reports resume.  A negative outage
    raises: it would schedule none, yet the ACK-path dose would still
    apply to a row the table reads as the clean reference.
    """
    require_int("outage_ms", outage_ms)
    if outage_ms < 0:
        raise ValueError(f"outage_ms must be non-negative, got {outage_ms!r}")
    if miss_rate == 0 and outage_ms == 0:
        return None
    outages = []
    if outage_ms > 0:
        start = max(0, int(duration_s * 1_000 / 2 - outage_ms / 2))
        outages.append([start, int(outage_ms)])
    return FaultSpec(
        seed=fault_seed,
        dci_miss_rate=miss_rate,
        outages=tuple(tuple(pair) for pair in outages),
        ack_loss_rate=ACK_LOSS_RATE,
        feedback_corrupt_rate=FEEDBACK_CORRUPT_RATE).to_dict()


@dataclass
class ResilienceEntry:
    """One (scheme, miss-rate, outage) run of the sweep."""

    scheme: str
    miss_rate: float
    outage_ms: int
    summary: FlowSummary
    lost_packets: int
    #: Seconds the PBE sender spent per control state (None for
    #: baselines without the watchdog machinery).
    sender_states: dict | None
    fault_stats: dict | None

    @property
    def is_clean(self) -> bool:
        return self.miss_rate == 0 and self.outage_ms == 0

    @property
    def fallback_s(self) -> float:
        if not self.sender_states:
            return 0.0
        return float(self.sender_states.get("fallback", 0.0))


@dataclass
class ResilienceResult:
    """All runs of one resilience sweep."""

    duration_s: float
    entries: list = field(default_factory=list)
    #: Structured :class:`repro.exec.JobFailure` records for grid
    #: cells that failed (the rest of the grid still reports).
    failures: list = field(default_factory=list)

    def schemes(self) -> list[str]:
        return list(dict.fromkeys(e.scheme for e in self.entries))

    def clean_for(self, scheme: str) -> ResilienceEntry | None:
        for entry in self.entries:
            if entry.scheme == scheme and entry.is_clean:
                return entry
        return None

    def format(self) -> str:
        rows = []
        for entry in self.entries:
            clean = self.clean_for(entry.scheme)
            relative = float("nan")
            if clean is not None and clean.summary.average_throughput_bps:
                relative = (100.0 * entry.summary.average_throughput_bps
                            / clean.summary.average_throughput_bps)
            rows.append([
                entry.scheme,
                f"{100 * entry.miss_rate:g}%",
                entry.outage_ms,
                entry.summary.average_throughput_mbps,
                relative,
                entry.fallback_s,
                entry.summary.p95_delay_ms,
                entry.lost_packets,
            ])
        table = format_table(
            ["scheme", "DCI miss", "outage (ms)", "tput (Mbit/s)",
             "vs clean (%)", "fallback (s)", "p95 delay (ms)", "lost"],
            rows,
            title=("Resilience sweep: impaired decode/feedback, busy "
                   f"cell, {self.duration_s:g} s flows"))
        if self.failures:
            lines = [f"  FAILED {f.summary()}" for f in self.failures]
            table += (f"\n{len(self.failures)} run(s) failed:\n"
                      + "\n".join(lines))
        return table


def resilience_jobs(schemes: tuple[str, ...] = ("pbe", "bbr"),
                    miss_rates: tuple[float, ...] = (0.0, 0.05, 0.2),
                    outages_ms: tuple[int, ...] = (0, 500),
                    duration_s: float = 6.0,
                    base_seed: int = 400,
                    fault_seed: int = 7) -> list[Job]:
    """The sweep's job grid (scheme × miss-rate × outage)."""
    if not schemes or not miss_rates or not outages_ms:
        raise ValueError("need at least one scheme, miss rate and outage")
    scenario = resilience_scenario(duration_s, base_seed)
    jobs = []
    for scheme in schemes:
        for miss in miss_rates:
            for outage in outages_ms:
                faults = fault_dict(miss, outage, duration_s, fault_seed)
                overrides = {"faults": faults} if faults else {}
                jobs.append(Job(scenario, scheme, overrides))
    return jobs


def run_resilience(schemes: tuple[str, ...] = ("pbe", "bbr"),
                   miss_rates: tuple[float, ...] = (0.0, 0.05, 0.2),
                   outages_ms: tuple[int, ...] = (0, 500),
                   duration_s: float = 6.0,
                   base_seed: int = 400, fault_seed: int = 7,
                   runner=None) -> ResilienceResult:
    """Run the miss-rate × outage-duration resilience grid.

    Every scheme's (0, 0) cell is its unimpaired reference; the
    formatted table reports each impaired cell's throughput relative
    to it, plus the time PBE-CC spent on the delay-based fallback.
    """
    job_list = resilience_jobs(schemes, miss_rates, outages_ms,
                               duration_s, base_seed, fault_seed)
    payloads = (runner or make_runner()).run(job_list)
    result = ResilienceResult(duration_s=duration_s)
    for job, payload in zip(job_list, payloads):
        if is_failure(payload):
            result.failures.append(payload)
            continue
        faults = job.spec_overrides.get("faults") or {}
        outages = faults.get("outages") or []
        result.entries.append(ResilienceEntry(
            scheme=job.scheme,
            miss_rate=faults.get("dci_miss_rate", 0.0),
            outage_ms=sum(duration for _, duration in outages),
            summary=summary_from_dict(payload["summary"]),
            lost_packets=payload["lost_packets"],
            sender_states=payload.get("sender_states"),
            fault_stats=payload.get("fault_stats")))
    return result
