"""The paper's claims at reduced scale, one case per claim id."""

import pytest

from repro.harness.claims import claims, entries


@pytest.mark.parametrize("figure, claim", [
    pytest.param(figure, claim, id=claim.id, marks=[pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=claim.xfail)]
        if claim.xfail else [])
    for figure, claim in claims()])
def test_claim(figure, claim, runs):
    entry = next(e for e in entries(runs, figure) if e["id"] == claim.id)
    assert entry["holds"], \
        f"{claim.id} = {entry['measured']} (paper {claim.paper}), bound " \
        f"{claim.op} {claim.bound}"
