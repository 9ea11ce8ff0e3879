"""Component carriers and per-user carrier-aggregation state (§3).

By default a user is served by its *primary* component carrier (CC).
When a user's traffic exceeds what the serving cell(s) can carry, the
network activates the next *secondary* CC from the user's configured
aggregation list, and deactivates it again once the extra capacity goes
unused (Figure 2).  The activation policy itself lives in
:class:`repro.cell.ca_manager.CarrierAggregationManager`; this module
holds the static carrier descriptions and the per-user activation state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .prb import prbs_for_bandwidth


@dataclass(frozen=True)
class CarrierConfig:
    """Static description of one component carrier (one cell)."""

    cell_id: int
    bandwidth_mhz: float = 20.0
    frequency_ghz: float = 1.94

    @property
    def total_prbs(self) -> int:
        """PRBs available per subframe on this carrier."""
        return prbs_for_bandwidth(self.bandwidth_mhz)


@dataclass
class AggregationState:
    """One user's carrier-aggregation state.

    ``configured`` is the ordered list of distinct cell ids the network
    may aggregate for this user (primary first); ``active_count`` says how
    many of them are currently activated (always ≥ 1: the primary cell
    can never be deactivated).
    """

    configured: list[int] = field(default_factory=list)
    active_count: int = 1

    def __post_init__(self) -> None:
        if not self.configured:
            raise ValueError("a user needs at least a primary cell")
        if len(set(self.configured)) != len(self.configured):
            raise ValueError(f"repeated cell ids in {self.configured}")
        if not 1 <= self.active_count <= len(self.configured):
            raise ValueError("active_count out of range")

    @property
    def primary_cell(self) -> int:
        return self.configured[0]

    @property
    def active_cells(self) -> list[int]:
        """Cell ids currently serving this user, primary first."""
        return self.configured[:self.active_count]

    @property
    def can_activate(self) -> bool:
        return self.active_count < len(self.configured)

    @property
    def can_deactivate(self) -> bool:
        return self.active_count > 1

    def activate_next(self) -> int:
        """Activate the next configured cell; returns its id."""
        if not self.can_activate:
            raise ValueError("all configured cells already active")
        self.active_count += 1
        return self.configured[self.active_count - 1]

    def deactivate_last(self) -> int:
        """Deactivate the most recently activated cell; returns its id."""
        if not self.can_deactivate:
            raise ValueError("primary cell cannot be deactivated")
        cell = self.configured[self.active_count - 1]
        self.active_count -= 1
        return cell
