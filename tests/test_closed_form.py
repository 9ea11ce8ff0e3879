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
"""

from __future__ import annotations

import functools

import pytest

from repro.cell.basestation import MIMO_SINR_THRESHOLD_DB, UeCategory
from repro.cell.queues import PROTOCOL_OVERHEAD
from repro.harness import Scenario
from repro.harness.runner import SCHEMES, run_flow
from repro.net.units import US_PER_MS
from repro.phy.error import block_error_rate, sinr_to_ber
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


def _scenario(sinr_db, duration_s):
    return Scenario(name="closed-form", aggregated_cells=1,
                    mean_sinr_db=sinr_db, fading_std_db=0.0,
                    duration_s=duration_s, seed=1)


def closed_form_bps(scenario):
    """Goodput one UE can get from the scenario's primary carrier."""
    category = UeCategory()
    sinr = scenario.mean_sinr_db
    mcs = sinr_to_mcs(sinr, category.max_mcs)
    streams = category.max_streams if sinr >= MIMO_SINR_THRESHOLD_DB else 1
    tb_bits = scenario.carriers[0].total_prbs * bits_per_prb(mcs, streams)
    tbler = block_error_rate(sinr_to_ber(sinr), tb_bits)
    return tb_bits * 1_000 * (1 - tbler) * (1 - PROTOCOL_OVERHEAD)


@functools.cache
def _run(scheme, sinr_db, duration_s, rate_bps):
    """One flow's summary and its closed form; ``rate_bps`` is a CBR
    source's rate (``None`` for every other scheme)."""
    overrides = {"cc_kwargs": {"rate_bps": rate_bps}} if rate_bps else None
    scenario = _scenario(sinr_db, duration_s)
    summary = run_flow(scenario, scheme, overrides).summary
    return summary, closed_form_bps(scenario)


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
    summary, capacity = _run(scheme, sinr_db, ANCHOR_S, None)
    share = summary.average_throughput_bps / capacity
    assert 0.95 <= share <= 1.0, share


@pytest.mark.parametrize("sinr_db", SINRS_DB)
def test_no_scheme_outruns_the_phy(sinr_db):
    rates = {"cbr": CBR_OVERLOAD_BPS}
    for scheme in sorted(SCHEMES):
        duration = ANCHOR_S if scheme in ANCHORED else CONSERVATION_S
        summary, capacity = _run(scheme, sinr_db, duration,
                                 rates.get(scheme))
        assert summary.average_throughput_bps <= capacity, scheme
    overload, capacity = _run("cbr", sinr_db, CONSERVATION_S,
                              CBR_OVERLOAD_BPS)
    assert overload.average_throughput_bps > 0.95 * capacity


@pytest.mark.parametrize("sinr_db", SINRS_DB)
def test_cbr_below_capacity_sees_the_delay_floor(sinr_db):
    summary, _ = _run("cbr", sinr_db, CONSERVATION_S, CBR_BELOW_BPS)
    scenario = _scenario(sinr_db, CONSERVATION_S)
    floor_ms = scenario.internet_delay_us / US_PER_MS + 2
    assert summary.average_throughput_bps == pytest.approx(CBR_BELOW_BPS,
                                                           rel=0.02)
    assert abs(summary.median_delay_ms - floor_ms) <= 1.0
