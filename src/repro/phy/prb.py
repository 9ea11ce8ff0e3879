"""Physical resource block (PRB) grid constants (§3 of the paper).

LTE divides the spectrum into 180 kHz chunks and time into 0.5 ms slots;
the smallest allocatable unit is a PRB.  Two slots form a 1 ms subframe
and the PRB allocation of both slots inside one subframe is identical,
so the scheduler in this reproduction works on whole subframes (PRB
pairs), exactly the granularity the paper's control messages describe.
"""

from __future__ import annotations

#: Standard LTE channel bandwidth (MHz) → number of PRBs (3GPP TS 36.101).
PRBS_PER_BANDWIDTH_MHZ = {
    1.4: 6,
    3.0: 15,
    5.0: 25,
    10.0: 50,
    15.0: 75,
    20.0: 100,
}


def prbs_for_bandwidth(bandwidth_mhz: float) -> int:
    """Number of PRBs for a standard LTE channel bandwidth.

    Raises ``ValueError`` for non-standard bandwidths so configuration
    typos fail loudly.
    """
    try:
        return PRBS_PER_BANDWIDTH_MHZ[float(bandwidth_mhz)]
    except KeyError:
        valid = sorted(PRBS_PER_BANDWIDTH_MHZ)
        raise ValueError(
            f"non-standard LTE bandwidth {bandwidth_mhz} MHz; "
            f"expected one of {valid}") from None
