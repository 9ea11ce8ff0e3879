"""Field checks: a bad value raises :class:`ValueError` naming its field
when a scenario, spec, link or channel is built, not mid-run."""

from __future__ import annotations

import math
import numbers


def require_int(name: str, value: object) -> None:
    """An integer, not a bool and not a float (``1.7`` is not truncated)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value: object) -> None:
    """A finite real number, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
