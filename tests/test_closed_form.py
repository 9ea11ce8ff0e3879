"""Closed-form anchors: what the PHY arithmetic says one flow must get.

Every other end-to-end assertion compares a scheme with a scheme or the
engine with its reference.  On one idle 20 MHz carrier with a static
channel (``fading_std_db=0``) the answer is arithmetic instead:

    capacity = PRBs × bits_per_prb(MCS, streams) × 1 000
               × (1 − TBLER) × (1 − 6.8 %),   TBLER = 1 − (1 − p)^L

with ``p`` the channel's bit error rate and ``L`` the transport block's
bits (Eqn. 5), computed here from the PHY tables themselves.

Measured on this configuration (seed 1) before the bands were fixed,
as shares of the closed form (107.84 Mbit/s at 20 dB, 69.07 at 14 dB):

=========  ======  ======  ======
10 s flow   PBE     BBR    CUBIC
=========  ======  ======  ======
20 dB      0.9866  0.9776  0.9781
14 dB      0.9888  0.9810  0.9823
=========  ======  ======  ======

Each must land in [0.95, 1.0].  No scheme may exceed the closed form —
a flow faster than the PHY is a conservation bug; a 150 Mbit/s CBR
source, the closest to the limit, read 0.9946 at 20 dB and 0.9949 at
14 dB over 2 s.  A 50 Mbit/s CBR source, below capacity, sees the
one-way-delay floor: the 18 ms wire plus two subframes (the wait for
the next tick, then the air).  Its median read 19.88 ms at 20 dB and
20.04 ms at 14 dB, and must stay within 1 ms of that floor.

The same arithmetic covers the rest of the static idle cell (seed 1,
10 s, the 20 dB cases only, to keep the module's wall time small):

* *Carrier aggregation.*  With 2 or 3 CCs the closed form is the sum
  over the aggregated carriers, each with its own PRB count (so its
  own ``L``).  Shares read PBE / BBR / CUBIC 0.982 / 0.973 / 0.974
  (2 CCs) and 0.978 / 0.969 / 0.970 (3 CCs); at 14 dB 0.984 / 0.976 /
  0.977 and 0.976 / 0.972 / 0.974.  Each must land in [0.95, 1.0].
* *N PBE flows on one carrier* (§6.4).  Each flow gets 1.017–1.040 ×
  (single-UE closed form)/N, not 1/N of it: the scheduler splits the
  PRBs, so each UE's transport block is 1/N the size and its TBLER
  ``1 − (1 − p)^L`` is lower.  Eqn. 5 applied per user
  (``L = PRBs/N × bits_per_prb``) gives 1.029 / 1.039 / 1.044 × the
  single-UE form for N = 2 / 3 / 4; against it every flow read
  0.985–0.988, and Jain's index 1.00000.  Each flow must land in
  [0.95, 1.0] of the per-user form, and Jain's index ≥ 0.99.
* *PBE's standing queue.*  Median one-way delay minus the 20 ms floor
  read 9.3 / 9.3 / 9.7 ms at 14 dB and 8.9 / 8.7 / 9.2 ms at 20 dB
  (seeds 1–3); see the test for the band.
* *The CBR tail inside the HARQ chain.*  The 50 Mbit/s source's p95
  read 25.8–27.4 ms and its maximum 28.2–36.8 ms over seeds 1–8 at
  both SINRs and both 2 s and 10 s: a block that fails waits one HARQ
  round (8 ms) per retransmission, at most ``MAX_RETRANSMISSIONS``.
* *Eqn. 5 per carrier, counted.*  The retransmission grants each
  carrier's control channel shows are what ``1 − (1 − p)^L`` predicts
  for its new blocks, HARQ's chase-combining gain included.  A
  saturated 2 s flow over 3 CCs sends ~1 800 new blocks and 50–150
  retransmissions per carrier; the count's z-score read −1.56 … +1.57
  (pooled over the CCs, seeds 1–5) and −1.51 … +1.73 per carrier
  (seed 1, 1–3 CCs at 8 / 14 / 20 dB).  Drawing the error at half the
  block's bits halves the count (z ≈ −8).
"""

from __future__ import annotations

import functools

import pytest

from repro.cell.basestation import MIMO_SINR_THRESHOLD_DB, MIMO_STREAMS
from repro.cell.queues import PROTOCOL_OVERHEAD
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.metrics import jain_index
from repro.harness.runner import SCHEMES, run_flow
from repro.net.units import US_PER_MS
from repro.phy.harq import MAX_RETRANSMISSIONS, RETX_DELAY_SUBFRAMES
from repro.phy.error import (block_error_rate, retransmission_ber,
                             sinr_to_ber)
from repro.phy.mcs import bits_per_prb, sinr_to_mcs

SINRS_DB = (14.0, 20.0)
ANCHORED = ("pbe", "bbr", "cubic")
#: Long enough for every scheme's startup to cost under 5 %.
ANCHOR_S = 10.0
#: Long enough to fill the pipe; the bound holds at any length (the
#: anchored schemes reuse their anchor runs).
CONSERVATION_S = 2.0
#: The CBR rates: one above capacity (conservation), one below (delay).
CBR_OVERLOAD_BPS = 150e6
CBR_BELOW_BPS = 50e6
#: The SINR of the aggregation and shared-carrier cases.
SHARED_SINR_DB = 20.0
#: HARQ retransmits a failed block one round later.
HARQ_ROUND_MS = RETX_DELAY_SUBFRAMES
#: A saturating source for the per-carrier TBLER count, and its run.
CBR_SATURATING_BPS = 400e6
TBLER_S = 2.0
TBLER_CELLS = 3


def _scenario(sinr_db, duration_s, cells=1):
    return Scenario(name="closed-form", aggregated_cells=cells,
                    mean_sinr_db=sinr_db, fading_std_db=0.0,
                    duration_s=duration_s, seed=1)


def closed_form_bps(scenario, users=1):
    """Goodput one of ``users`` equally served UEs can get from the
    scenario's aggregated carriers: each carrier's PRBs split ``users``
    ways, so each UE's transport block (and its TBLER) is that size."""
    sinr = scenario.mean_sinr_db
    mcs = sinr_to_mcs(sinr)
    streams = MIMO_STREAMS if sinr >= MIMO_SINR_THRESHOLD_DB else 1
    total = 0.0
    for carrier in scenario.carriers[:scenario.aggregated_cells]:
        tb_bits = carrier.total_prbs / users * bits_per_prb(mcs, streams)
        tbler = block_error_rate(sinr_to_ber(sinr), tb_bits)
        total += tb_bits * 1_000 * (1 - tbler) * (1 - PROTOCOL_OVERHEAD)
    return total


@functools.cache
def _run(scheme, sinr_db, duration_s, rate_bps, cells=1):
    """One flow's result and its closed form; ``rate_bps`` is a CBR
    source's rate (``None`` for every other scheme)."""
    overrides = {"cc_kwargs": {"rate_bps": rate_bps}} if rate_bps else None
    scenario = _scenario(sinr_db, duration_s, cells)
    return run_flow(scenario, scheme, overrides), closed_form_bps(scenario)


@functools.cache
def _run_shared(n_flows):
    """``n_flows`` backlogged PBE flows on one carrier: their average
    throughputs, the single-UE closed form and the per-user one."""
    scenario = _scenario(SHARED_SINR_DB, ANCHOR_S)
    experiment = Experiment(scenario)
    for i in range(n_flows):
        experiment.add_flow(FlowSpec(scheme="pbe", rnti=100 + i))
    rates = [r.summary.average_throughput_bps for r in experiment.run()]
    return (rates, closed_form_bps(scenario),
            closed_form_bps(scenario, users=n_flows))


def test_closed_form_reads_the_phy_tables():
    # Two spatial streams from 10 dB on; the 14 dB and 20 dB anchors
    # differ in MCS only.
    assert closed_form_bps(_scenario(20.0, 1.0)) == pytest.approx(
        107.84e6, rel=1e-3)
    assert closed_form_bps(_scenario(14.0, 1.0)) == pytest.approx(
        69.07e6, rel=1e-3)


@pytest.mark.parametrize("sinr_db", SINRS_DB)
@pytest.mark.parametrize("scheme", ANCHORED)
def test_backlogged_flow_reaches_the_closed_form(scheme, sinr_db):
    result, capacity = _run(scheme, sinr_db, ANCHOR_S, None)
    share = result.summary.average_throughput_bps / capacity
    assert 0.95 <= share <= 1.0, share


@pytest.mark.parametrize("cells", (2, 3))
@pytest.mark.parametrize("scheme", ANCHORED)
def test_aggregated_flow_reaches_the_sum_over_carriers(scheme, cells):
    result, capacity = _run(scheme, SHARED_SINR_DB, ANCHOR_S, None, cells)
    share = result.summary.average_throughput_bps / capacity
    assert 0.95 <= share <= 1.0, share


@pytest.mark.parametrize("n_flows", (2, 3, 4))
def test_pbe_flows_split_one_carrier_by_the_per_user_closed_form(n_flows):
    # Not 1/N of the single-UE form: each UE's transport block is 1/N
    # the size, so its TBLER 1 - (1 - p)^L is lower and each flow's
    # closed form is 1.029-1.044 x (single-UE form)/N at 20 dB.
    rates, single, per_user = _run_shared(n_flows)
    assert per_user > single / n_flows
    for rate in rates:
        assert 0.95 <= rate / per_user <= 1.0, rate / per_user
    assert jain_index(rates) >= 0.99


@pytest.mark.parametrize("sinr_db", SINRS_DB)
def test_pbe_standing_queue_stays_in_its_band(sinr_db):
    # PBE holds ~9 ms of queue above the one-way-delay floor on an idle
    # static cell (WIRELESS_PACING_GAIN and the cwnd margin); Table 1's
    # delay ratios rest on it.  A change that moves it out of this band
    # must say so, and why.
    result, _ = _run("pbe", sinr_db, ANCHOR_S, None)
    scenario = _scenario(sinr_db, ANCHOR_S)
    floor_ms = scenario.internet_delay_us / US_PER_MS + 2
    assert 7.0 <= result.summary.median_delay_ms - floor_ms <= 12.0


@pytest.mark.parametrize("sinr_db", SINRS_DB)
def test_no_scheme_outruns_the_phy(sinr_db):
    rates = {"cbr": CBR_OVERLOAD_BPS}
    for scheme in sorted(SCHEMES):
        duration = ANCHOR_S if scheme in ANCHORED else CONSERVATION_S
        result, capacity = _run(scheme, sinr_db, duration,
                                rates.get(scheme))
        assert result.summary.average_throughput_bps <= capacity, scheme
    overload, capacity = _run("cbr", sinr_db, CONSERVATION_S,
                              CBR_OVERLOAD_BPS)
    assert overload.summary.average_throughput_bps > 0.95 * capacity


@pytest.mark.parametrize("sinr_db", SINRS_DB)
def test_cbr_below_capacity_sees_the_delay_floor(sinr_db):
    result, _ = _run("cbr", sinr_db, CONSERVATION_S, CBR_BELOW_BPS)
    summary = result.summary
    scenario = _scenario(sinr_db, CONSERVATION_S)
    floor_ms = scenario.internet_delay_us / US_PER_MS + 2
    assert summary.average_throughput_bps == pytest.approx(CBR_BELOW_BPS,
                                                           rel=0.02)
    assert abs(summary.median_delay_ms - floor_ms) <= 1.0
    # The tail is HARQ's: p95 within one retransmission round of the
    # floor, and no packet later than the last retransmission allows.
    assert summary.p95_delay_ms <= floor_ms + HARQ_ROUND_MS
    worst_ms = max(result.stats.delay_us) / US_PER_MS
    assert worst_ms <= floor_ms + MAX_RETRANSMISSIONS * HARQ_ROUND_MS


def expected_retransmissions(ber, tb_bits, rounds):
    """Eqn. 5's expected retransmissions of one new ``tb_bits`` block
    whose first ``rounds`` retransmissions fall inside the run: the
    k-th happens when the first transmission and the k − 1 before it
    all failed, each at its chase-combined BER."""
    expected, all_failed = 0.0, 1.0
    for attempt in range(min(rounds, MAX_RETRANSMISSIONS)):
        all_failed *= block_error_rate(retransmission_ber(ber, attempt),
                                       tb_bits)
        expected += all_failed
    return expected


@pytest.mark.parametrize("sinr_db", SINRS_DB)
def test_retransmissions_per_carrier_match_eqn5(sinr_db):
    scenario = _scenario(sinr_db, TBLER_S, TBLER_CELLS)
    experiment = Experiment(scenario)
    spec = FlowSpec(scheme="cbr",
                    cc_kwargs={"rate_bps": CBR_SATURATING_BPS})
    experiment.add_flow(spec)
    records = {carrier.cell_id: [] for carrier in
               scenario.carriers[:scenario.aggregated_cells]}
    for cell_id, recorded in records.items():
        experiment.network.attach_monitor(cell_id, recorded.append)
    experiment.run()
    ber = sinr_to_ber(sinr_db)
    for cell_id, recorded in records.items():
        last = recorded[-1].subframe
        expected = observed = new_blocks = 0
        for record in recorded:
            for dci in record.messages:
                if dci.rnti != spec.rnti or dci.is_control:
                    continue
                if not dci.new_data:
                    observed += 1
                    continue
                new_blocks += 1
                rounds = (last - record.subframe) // RETX_DELAY_SUBFRAMES
                expected += expected_retransmissions(ber, dci.tbs_bits,
                                                     rounds)
        assert new_blocks > 1_000, (cell_id, new_blocks)
        z = (observed - expected) / expected ** 0.5
        assert abs(z) <= 4.0, (cell_id, observed, expected, z)
