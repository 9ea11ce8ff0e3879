"""End-of-run readers of the packed ``FlowStats`` columns.

``summarize_flow``, ``windowed_throughput_bps`` and ``digest_run`` read
the ``array('q')`` columns through numpy views and streamed chunks
instead of boxed copies.  Three properties hold them to that:

* oracle: the list-based readers in ``tests/reference_metrics.py``
  produce the same ``FlowSummary`` repr, the same windows and the same
  hashed bytes on random logs;
* zero copy is safe: a reader called mid-run leaves no view behind, so
  the flow keeps recording (a live view makes ``append`` raise
  ``BufferError``);
* memory: their tracemalloc peak per logged row stays a small constant.
"""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.fingerprint import _CHUNK, _hash_column, digest_run
from repro.harness.metrics import summarize_flow, windowed_throughput_bps
from repro.harness.runner import Experiment, FlowSpec
from repro.harness.scenarios import Scenario
from repro.net.flow import FlowStats

from . import reference_metrics

#: Column lengths around the digest's chunk edge.
EDGE_LENGTHS = (0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1)


class _Recorder:
    """A stand-in hasher that keeps every byte it is fed."""

    def __init__(self) -> None:
        self.data = bytearray()

    def update(self, data: bytes) -> None:
        self.data += data


@st.composite
def flow_logs(draw) -> FlowStats:
    """A delivery log as the simulator writes one: arrivals never go
    back, bursts share an instant, and a flow may be one instant."""
    n = draw(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 40)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gaps = draw(st.sampled_from(((0,), (0, 0, 1, 997, 12_000),
                                 (0, 50_000, 250_000))))
    stats = FlowStats(1)
    t = rng.randrange(0, 3_000_000)
    for _ in range(n):
        t += rng.choice(gaps)
        stats.record(t, rng.randrange(1, 24_001), rng.randrange(0, 10 ** 7))
    return stats


@settings(max_examples=150, deadline=None)
@given(stats=flow_logs())
def test_summary_and_windows_match_the_list_oracle(stats):
    assert repr(summarize_flow(stats, "s")) == \
        repr(reference_metrics.summarize_flow(stats, "s"))
    got = windowed_throughput_bps(stats)
    want = reference_metrics.windowed_throughput_bps(stats)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(EDGE_LENGTHS), seed=st.integers(0, 2 ** 32 - 1))
def test_column_hashing_feeds_the_tuple_repr_bytes(n, seed):
    rng = random.Random(seed)
    column = FlowStats(1).delay_us
    column.extend(rng.randrange(-2 ** 63, 2 ** 63) for _ in range(n))
    recorder = _Recorder()
    _hash_column(recorder, column)
    assert bytes(recorder.data) == reference_metrics.column_bytes(column)


def test_single_instant_flow_has_empty_windows():
    stats = FlowStats(1)
    stats.record_block(5_000, [12_000, 12_000, 8_000], [20_000, 21_000, 22_000])
    assert windowed_throughput_bps(stats).size == 0
    summary = summarize_flow(stats)
    assert summary.average_throughput_bps == 0.0
    assert summary.packets == 3
    assert repr(summary) == repr(reference_metrics.summarize_flow(stats))


# ---------------------------------------------------------------------------
def test_readers_called_mid_run_leave_the_log_appendable():
    scenario = Scenario(name="mid-run-readers", aggregated_cells=1,
                        mean_sinr_db=18.0, busy=False, duration_s=0.6,
                        seed=3)
    experiment = Experiment(scenario)
    handle = experiment.add_flow(FlowSpec(scheme="pbe"))
    experiment.sim.run(until_us=200_000)
    stats = handle.stats
    assert stats.packets > 0
    windowed_throughput_bps(stats)
    summarize_flow(stats)
    before = stats.packets
    results = experiment.run()      # raises BufferError on a live view
    assert stats.packets > before
    digest_run(experiment, [handle], results)
    before = stats.packets
    experiment.sim.run(until_us=800_000)
    assert stats.packets > before
    assert len(stats.size_bits) == len(stats.delay_us) == stats.packets


# ---------------------------------------------------------------------------
#: Rows in the synthetic log the memory budget is measured on.
BUDGET_ROWS = 200_000
#: tracemalloc peak per row: summarize holds the delays in ms (8 B/row)
#: and, before that, the window index and the cast weights (16 B/row);
#: the digest holds one chunk.  The boxed readers took 65 and 139.
SUMMARIZE_BYTES_PER_ROW = 32
DIGEST_BYTES_PER_ROW = 8


def _peak_bytes_per_row(fn) -> float:
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / BUDGET_ROWS


def _synthetic_run() -> tuple:
    """``(stats, experiment, handle, result)`` stubs for ``digest_run``."""
    stats = FlowStats(1)
    for i in range(BUDGET_ROWS):
        stats.record(i * 53, 12_000 + (i % 7) * 8,
                     20_000 + (i * 7_919) % 30_000)
    experiment = SimpleNamespace(
        sim=SimpleNamespace(now=stats.last_arrival_us),
        network=SimpleNamespace(subframe=0))
    handle = SimpleNamespace(monitor=None)
    result = SimpleNamespace(stats=stats, sent_packets=BUDGET_ROWS,
                             lost_packets=0, ca_activations=0,
                             state_fractions=None, sender_states=None,
                             fault_stats=None)
    return stats, experiment, handle, result


def test_end_of_run_memory_is_a_few_bytes_per_row():
    stats, experiment, handle, result = _synthetic_run()
    summarize = _peak_bytes_per_row(lambda: summarize_flow(stats))
    digest = _peak_bytes_per_row(
        lambda: digest_run(experiment, [handle], [result]))
    assert summarize < SUMMARIZE_BYTES_PER_ROW, summarize
    assert digest < DIGEST_BYTES_PER_ROW, digest


def test_streamed_digest_is_the_boxed_digest():
    stats, experiment, handle, result = _synthetic_run()
    expected = hashlib.sha256()
    for part in (stats.last_arrival_us, 0):
        expected.update(repr(part).encode() + b"\x00")
    for column in (stats.arrival_us, stats.size_bits, stats.delay_us):
        expected.update(reference_metrics.column_bytes(column))
    for part in (BUDGET_ROWS, 0, 0, None, None, None):
        expected.update(repr(part).encode() + b"\x00")
    assert digest_run(experiment, [handle], [result]) == expected.hexdigest()
