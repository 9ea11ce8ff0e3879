"""Figure 6: retransmission/protocol overhead and TB error rates.

(a) The fraction of wireless capacity spent on HARQ retransmissions
(grows with offered load, larger at the weak-signal location) and on
protocol headers (constant γ = 6.8%), at two signal strengths.  The
retransmission share is measured from decoded control messages; the
protocol share is the constant ``PROTOCOL_OVERHEAD`` itself.

(b) Transport-block error rate vs TB size: the theoretical
``1-(1-p)^L`` curves against a Monte-Carlo sample of that same formula
(the law the MAC draws from), not against the MAC's own blocks.

Substitution note: the paper's two locations are RSSI −98/−113 dBm;
we use the SINRs those map to under our noise-floor model, and sweep
the offered load as a fraction of each location's capacity so both
locations cover the same relative range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cell.basestation import MIMO_SINR_THRESHOLD_DB, MIMO_STREAMS
from ...cell.queues import PROTOCOL_OVERHEAD
from ...phy.carrier import CarrierConfig
from ...phy.error import block_error_rate, sinr_to_ber
from ...phy.mcs import bits_per_prb, sinr_to_mcs
from ..runner import Experiment, FlowSpec
from ..scenarios import Scenario

#: SINRs standing in for the paper's −98 dBm and −113 dBm locations.
STRONG_SINR_DB = 13.0
WEAK_SINR_DB = 4.0


@dataclass
class OverheadPoint:
    sinr_db: float
    offered_mbps: float
    retransmission_pct: float
    protocol_pct: float


@dataclass
class TblerPoint:
    tb_bits: int
    ber: float
    theory: float
    empirical: float


@dataclass
class Fig06Result:
    overhead: list        #: Figure 6(a) points
    tbler: list           #: Figure 6(b) points


def _overhead_at(sinr_db: float, load_fraction: float,
                 duration_s: float, seed: int) -> OverheadPoint:
    scenario = Scenario(
        name="fig06", carriers=[CarrierConfig(0, 20.0)],
        aggregated_cells=1, mean_sinr_db=sinr_db, fading_std_db=0.0,
        busy=False, duration_s=duration_s, seed=seed)
    experiment = Experiment(scenario)

    records = []
    experiment.network.attach_monitor(0, records.append)
    # Estimate the location's capacity from the PHY tables, then offer
    # the requested fraction of it.
    streams = MIMO_STREAMS if sinr_db >= MIMO_SINR_THRESHOLD_DB else 1
    capacity_bps = bits_per_prb(sinr_to_mcs(sinr_db), streams) * 100 * 1_000
    offered = load_fraction * capacity_bps

    experiment.add_flow(FlowSpec(scheme="cbr",
                                 cc_kwargs={"rate_bps": offered}))
    experiment.run()

    new_bits = retx_bits = 0
    for record in records:
        for message in record.messages:
            if message.is_control:
                continue
            if message.new_data:
                new_bits += message.tbs_bits
            else:
                retx_bits += message.tbs_bits
    total = new_bits + retx_bits
    retx_pct = 100.0 * retx_bits / total if total else 0.0
    return OverheadPoint(
        sinr_db=sinr_db, offered_mbps=offered / 1e6,
        retransmission_pct=retx_pct,
        protocol_pct=100.0 * PROTOCOL_OVERHEAD)


def _empirical_tbler(ber: float, tb_bits: int, trials: int,
                     rng: np.random.Generator) -> float:
    """Sample ``block_error_rate(ber, tb_bits)`` ``trials`` times."""
    p = block_error_rate(ber, tb_bits)
    return float(np.mean(rng.random(trials) < p))


def run_fig06(load_fractions: tuple = (0.15, 0.3, 0.5, 0.7, 0.9),
              tb_sizes_kbit: tuple = (10, 20, 30, 40, 50, 60, 70),
              duration_s: float = 2.0, trials: int = 4_000,
              seed: int = 17) -> Fig06Result:
    """Run both halves of Figure 6.

    Two of its claims check the model against itself, so no change to
    the MAC can flip them: ``fig06.protocol_overhead_error_pct``
    compares the constant ``PROTOCOL_OVERHEAD`` with 6.8 %, and
    ``fig06.tbler_fit_error`` compares a sample of
    ``block_error_rate`` with ``block_error_rate``.
    """
    overhead = []
    for sinr in (STRONG_SINR_DB, WEAK_SINR_DB):
        for fraction in load_fractions:
            overhead.append(_overhead_at(sinr, fraction, duration_s,
                                         seed))
    rng = np.random.default_rng(seed)
    tbler = []
    for ber in (sinr_to_ber(STRONG_SINR_DB), sinr_to_ber(WEAK_SINR_DB)):
        for kbit in tb_sizes_kbit:
            bits = kbit * 1_000
            tbler.append(TblerPoint(
                tb_bits=bits, ber=ber,
                theory=block_error_rate(ber, bits),
                empirical=_empirical_tbler(ber, bits, trials, rng)))
    return Fig06Result(overhead, tbler)
