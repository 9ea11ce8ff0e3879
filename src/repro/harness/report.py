"""Plain-text table rendering for the CLI's run, sweep and fleet status
tables.  Paper figures print as claim lines
(:func:`repro.harness.claims.claim_line`).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    rendered_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)

