"""Figure 15: locations at which each scheme triggers carrier
aggregation."""

import pytest

from repro.harness.experiments import fig15_from_sweep


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: Copa collapse waits on a "
                          "spec-grounded LTE uplink")
def test_fig15_ca_triggering(benchmark, stationary_sweep):
    result = benchmark.pedantic(
        fig15_from_sweep, args=(stationary_sweep,),
        rounds=1, iterations=1)
    print("\n" + result.format())

    eligible = result.rows[0].eligible
    # Aggressive schemes trigger CA almost everywhere eligible...
    assert result.count("pbe") >= 0.8 * eligible
    assert result.count("bbr") >= 0.8 * eligible
    assert result.count("cubic") >= 0.8 * eligible
    # ...while Copa's conservative rate rarely does (paper: near zero).
    assert result.count("copa") <= 0.3 * eligible
