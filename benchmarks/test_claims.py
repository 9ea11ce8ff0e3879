"""The paper's claims at reduced scale, one case per claim id."""

import pytest

from repro.harness.claims import claims


@pytest.mark.parametrize("figure, claim", [
    pytest.param(figure, claim, id=claim.id, marks=[pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=claim.xfail)]
        if claim.xfail else [])
    for figure, claim in claims()])
def test_claim(figure, claim, runs):
    value = claim.measure(runs(figure))
    assert claim.holds(value), \
        f"{claim.id} = {value} (paper {claim.paper}), bound " \
        f"{claim.op} {claim.bound}"
