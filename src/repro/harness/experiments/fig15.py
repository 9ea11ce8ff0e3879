"""Figure 15: locations at which each scheme triggers carrier
aggregation.

Aggressive schemes (PBE, BBR, CUBIC, Verus) push the cell hard enough
that the network activates secondary carriers at most multi-carrier
locations; conservative schemes (Copa, PCC, Vivace, Sprout) send so
little that carrier aggregation stays off — the paper's explanation
for their capacity under-utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sweep import SweepResult


@dataclass
class Fig15Row:
    scheme: str
    ca_triggered: int      #: locations where ≥1 secondary was activated
    eligible: int          #: locations with ≥2 configured carriers


@dataclass
class Fig15Result:
    rows: list[Fig15Row]

    def count(self, scheme: str) -> int:
        for row in self.rows:
            if row.scheme == scheme:
                return row.ca_triggered
        raise KeyError(scheme)


def fig15_from_sweep(sweep: SweepResult) -> Fig15Result:
    """Count CA-triggering locations per scheme.

    A location is *eligible* when the device aggregates more than one
    carrier there (the paper's Redmi 8 single-carrier locations cannot
    trigger CA for any scheme).
    """
    rows = []
    for scheme in sweep.schemes():
        entries = sweep.for_scheme(scheme)
        eligible = [e for e in entries if e.aggregated_cells > 1]
        triggered = sum(1 for e in eligible if e.ca_activations > 0)
        rows.append(Fig15Row(scheme=scheme, ca_triggered=triggered,
                             eligible=len(eligible)))
    rows.sort(key=lambda r: -r.ca_triggered)
    return Fig15Result(rows)
