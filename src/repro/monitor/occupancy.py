"""Cell-occupancy analytics from decoded control channels.

The paper's §2 surveys LTE monitoring tools (LTEye, OWL,
MobileInsight) that decode control channels for *analytics* rather
than congestion control.  This module provides that tooling over the
same DCI stream the PBE monitor consumes: per-cell utilization
timelines, per-user occupancy profiles and busy-hour style summaries —
handy for debugging experiments and for the cell-status
micro-benchmarks of §6.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..phy.dci import SubframeRecord


@dataclass
class UserOccupancy:
    """Aggregate footprint of one RNTI across an observation."""

    rnti: int
    subframes_active: int = 0
    total_prbs: int = 0
    total_bits: int = 0
    retransmissions: int = 0
    first_subframe: int = -1
    last_subframe: int = -1

    @property
    def mean_prbs(self) -> float:
        if self.subframes_active == 0:
            return 0.0
        return self.total_prbs / self.subframes_active

    @property
    def span_subframes(self) -> int:
        if self.first_subframe < 0:
            return 0
        return self.last_subframe - self.first_subframe + 1


class OccupancyAnalyzer:
    """Aggregate a cell's control-channel stream into analytics."""

    def __init__(self, cell_id: int, bucket_subframes: int = 1_000)\
            -> None:
        if bucket_subframes < 1:
            raise ValueError("bucket size must be positive")
        self.cell_id = cell_id
        self.bucket_subframes = bucket_subframes
        self.users: dict[int, UserOccupancy] = {}
        self.subframes = 0
        self.total_prbs_seen = 0
        self.allocated_prbs = 0
        #: Per-bucket (utilization fraction, distinct users) series.
        self._bucket_alloc = 0
        self._bucket_capacity = 0
        self._bucket_users: set[int] = set()
        self.utilization_series: list[float] = []
        self.users_series: list[int] = []

    def update(self, record: SubframeRecord) -> None:
        """Fold one decoded subframe in."""
        if record.cell_id != self.cell_id:
            raise ValueError(
                f"record for cell {record.cell_id} fed to analyzer "
                f"for cell {self.cell_id}")
        self.subframes += 1
        self.total_prbs_seen += record.total_prbs
        allocated = record.allocated_prbs
        self.allocated_prbs += allocated
        self._bucket_alloc += allocated
        self._bucket_capacity += record.total_prbs
        for message in record.messages:
            if message.n_prbs <= 0:
                continue
            user = self.users.setdefault(message.rnti,
                                         UserOccupancy(message.rnti))
            user.subframes_active += 1
            user.total_prbs += message.n_prbs
            user.total_bits += message.tbs_bits
            if not message.new_data:
                user.retransmissions += 1
            if user.first_subframe < 0:
                user.first_subframe = record.subframe
            user.last_subframe = record.subframe
            self._bucket_users.add(message.rnti)
        if self.subframes % self.bucket_subframes == 0:
            self._close_bucket()

    def _close_bucket(self) -> None:
        utilization = (self._bucket_alloc / self._bucket_capacity
                       if self._bucket_capacity else 0.0)
        self.utilization_series.append(utilization)
        self.users_series.append(len(self._bucket_users))
        self._bucket_alloc = 0
        self._bucket_capacity = 0
        self._bucket_users = set()

    # ------------------------------------------------------------------
    @property
    def mean_utilization(self) -> float:
        """Fraction of PRB capacity allocated over the observation."""
        if self.total_prbs_seen == 0:
            return 0.0
        return self.allocated_prbs / self.total_prbs_seen

    def top_users(self, n: int = 5) -> list[UserOccupancy]:
        """Heaviest users by total PRBs consumed."""
        return sorted(self.users.values(),
                      key=lambda u: -u.total_prbs)[:n]

    def retransmission_fraction(self) -> float:
        """Fraction of all scheduled (user, subframe) grants that were
        HARQ retransmissions."""
        active = sum(u.subframes_active for u in self.users.values())
        retx = sum(u.retransmissions for u in self.users.values())
        return retx / active if active else 0.0

    def summary(self) -> dict:
        """JSON-ready roll-up of the observation."""
        return {
            "cell_id": self.cell_id,
            "subframes": self.subframes,
            "mean_utilization": self.mean_utilization,
            "distinct_users": len(self.users),
            "retransmission_fraction": self.retransmission_fraction(),
            "peak_bucket_utilization": (max(self.utilization_series)
                                        if self.utilization_series
                                        else 0.0),
            "mean_bucket_users": (float(np.mean(self.users_series))
                                  if self.users_series else 0.0),
        }
