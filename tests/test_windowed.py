"""Tests for the time-windowed min/max filters."""

from hypothesis import given, strategies as st

from repro.baselines.windowed import WindowedMax, WindowedMin


def test_empty_filter_returns_none():
    assert WindowedMax(1_000).get() is None
    assert WindowedMin(1_000).get() is None


def test_max_tracks_maximum():
    f = WindowedMax(10_000)
    for t, v in [(0, 5.0), (1_000, 9.0), (2_000, 3.0)]:
        f.update(t, v)
    assert f.get() == 9.0


def test_min_tracks_minimum():
    f = WindowedMin(10_000)
    for t, v in [(0, 5.0), (1_000, 2.0), (2_000, 7.0)]:
        f.update(t, v)
    assert f.get() == 2.0


def test_samples_expire():
    f = WindowedMax(5_000)
    f.update(0, 100.0)
    f.update(1_000, 10.0)
    f.update(6_500, 20.0)  # the 100 at t=0 has fallen out
    assert f.get() == 20.0


def test_expire_without_update():
    f = WindowedMin(5_000)
    f.update(0, 1.0)
    f.update(1_000, 3.0)
    f.expire(10_000)
    assert f.get() is None


def test_window_resize_applies_on_next_update():
    f = WindowedMax(100_000)
    f.update(0, 50.0)
    f.window_us = 1_000
    f.update(5_000, 10.0)  # 50 is now outside the shrunken window
    assert f.get() == 10.0


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=100_000),
                          st.floats(min_value=0, max_value=1e9)),
                min_size=1, max_size=50))
def test_matches_naive_computation(samples):
    samples.sort(key=lambda s: s[0])
    window = 10_000
    fmax, fmin = WindowedMax(window), WindowedMin(window)
    for t, v in samples:
        fmax.update(t, v)
        fmin.update(t, v)
    now = samples[-1][0]
    in_window = [v for t, v in samples if t >= now - window]
    assert fmax.get() == max(in_window)
    assert fmin.get() == min(in_window)
