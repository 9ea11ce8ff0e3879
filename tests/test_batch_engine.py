"""Batched subframe engine: byte-identity and RNG-stream preservation.

The engine (block channel sampling, idle-cell fast-forward, one event
per ACK burst) must be *byte-identical* to the per-subframe, per-ACK
reference in ``tests/reference_engine.py`` — same packet logs, same
estimator state, same RNG stream consumption.  These
tests compare whole-run SHA-256 fingerprints across the pinned
6-configuration suite plus randomized configurations covering all three
channel models, carrier aggregation on/off and fault injection on/off,
hold both sides to recorded goldens, and pin the stream-preservation
tricks (block draws, idle fast-forward) at the unit level.  A channel
model belongs to one live user, and the CQI-reporting delay sees only
the subframes a user actually consumed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import platform
import random
from pathlib import Path

import numpy as np
import pytest

from repro.cell.control_traffic import ControlTrafficGenerator
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.fingerprint import (digest_run, fingerprint_configs,
                                       run_fingerprint)
from repro.phy.channel import (GaussMarkovChannel, StaticChannel,
                               TraceChannel)

from .reference_engine import ReferenceExperiment, reference_engine

#: Short but non-trivial: long enough for CA activation, window closes
#: and control-burst catch-up to all fire.
DURATION_S = 0.6

SUBFRAME_US = 1_000


# ---------------------------------------------------------------------------
# Whole-run byte identity: pinned suite
# ---------------------------------------------------------------------------

#: Digests frozen on the commit before the engine switch was removed
#: (``python -m tests.test_batch_engine`` rewrites the file), so the
#: engine and its reference are each held to a recorded value, not only
#: to each other.
GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())
GOLDEN_KEYS = [(kind, key) for kind in ("pinned", "random", "sparse_metro")
               for key in sorted(GOLDEN[kind])]


@functools.cache
def _digest(kind: str, key: str, reference: bool) -> str:
    """One configuration's digest from the engine or from the reference
    (each run once per session; configs are rebuilt per call because
    channels are stateful)."""
    with reference_engine() if reference else contextlib.nullcontext():
        if kind == "sparse_metro":
            from repro.metro import shard_fingerprint
            return shard_fingerprint(_sparse_metro_params())
        if kind == "pinned":
            scenario, specs = fingerprint_configs(DURATION_S)[key]
        else:
            scenario, specs = _random_config(int(key))
        return run_fingerprint(scenario, specs)


@pytest.mark.skipif(
    np.__version__ != GOLDEN["numpy"],
    reason=f"goldens were recorded with numpy {GOLDEN['numpy']}, this is "
           f"{np.__version__}: RNG streams and ulps may differ")
@pytest.mark.parametrize("reference", [False, True],
                         ids=["engine", "reference"])
@pytest.mark.parametrize("kind,key", GOLDEN_KEYS)
def test_digest_equals_the_recorded_golden(kind, key, reference):
    assert _digest(kind, key, reference) == GOLDEN[kind][key]


@pytest.mark.parametrize("name", sorted(fingerprint_configs(0.1)))
def test_pinned_suite_batched_matches_scalar(name):
    assert _digest("pinned", name, False) == _digest("pinned", name, True)


# ---------------------------------------------------------------------------
# Whole-run byte identity: randomized configurations
# ---------------------------------------------------------------------------

N_RANDOM_CONFIGS = 10


def _random_params(seed: int) -> dict:
    rng = random.Random(0xBA7C4 + seed)
    busy = rng.random() < 0.6
    return {
        "channel": rng.choice(["static", "gauss", "trace"]),
        "cells": rng.choice([1, 2, 3]),
        "busy": busy,
        "background_users": rng.randrange(1, 5) if busy else 0,
        "mean_sinr_db": round(rng.uniform(9.0, 24.0), 1),
        "cqi_delay": rng.choice([0, 0, 0, 3]),
        "faulted": rng.random() < 0.4,
        "scheme": rng.choice(["pbe", "pbe", "pbe", "bbr"]),
    }


def _random_config(seed: int) -> tuple[Scenario, list[FlowSpec]]:
    params = _random_params(seed)
    scenario = Scenario(
        name=f"rand-{seed}", aggregated_cells=params["cells"],
        mean_sinr_db=params["mean_sinr_db"], busy=params["busy"],
        background_users=params["background_users"],
        cqi_delay_subframes=params["cqi_delay"],
        duration_s=DURATION_S, seed=3_000 + seed)
    kwargs = {}
    if params["channel"] == "gauss":
        kwargs["channel"] = GaussMarkovChannel(
            mean_sinr_db=params["mean_sinr_db"], std_db=3.0, memory=0.9,
            coherence_us=8_000, seed=60 + seed)
    elif params["channel"] == "trace":
        kwargs["channel"] = TraceChannel(
            [(0, -95.0), (200_000, -89.0), (450_000, -102.0),
             (DURATION_S * 1e6, -93.0)],
            fading_std_db=1.0, seed=60 + seed)
    if params["faulted"]:
        kwargs["faults"] = {"seed": 90 + seed, "dci_miss_rate": 0.04,
                            "dci_false_rate": 0.002,
                            "ack_loss_rate": 0.01}
    return scenario, [FlowSpec(scheme=params["scheme"], **kwargs)]


def test_randomized_pool_covers_the_matrix():
    """The random pool must exercise every axis the tentpole touches."""
    pool = [_random_params(seed) for seed in range(N_RANDOM_CONFIGS)]
    assert {p["channel"] for p in pool} == {"static", "gauss", "trace"}
    assert {p["cells"] > 1 for p in pool} == {True, False}   # CA on/off
    assert {p["faulted"] for p in pool} == {True, False}
    assert {p["busy"] for p in pool} == {True, False}


@pytest.mark.parametrize("seed", range(N_RANDOM_CONFIGS))
def test_randomized_configs_batched_matches_scalar(seed):
    assert (_digest("random", str(seed), False)
            == _digest("random", str(seed), True))


# ---------------------------------------------------------------------------
# Whole-run byte identity: metro scale (idle-cell fast-forward)
# ---------------------------------------------------------------------------

def _sparse_metro_params():
    """A ≥100-cell, mostly-idle metro shard (one hotspot fleet).

    This is the workload the idle-cell fast-forward exists for: at any
    instant all but a handful of cells are unobservable, so the engine
    skips them wholesale while the reference ticks every cell every
    subframe.  The fingerprints must still match exactly.
    """
    from repro.metro import GridSpec, MetroSet, build_grid, shard_jobs
    mset = MetroSet(
        name="sparse-fp", description="batch-engine fixture",
        grid=GridSpec(name="sparse-fp", n_cells=102,
                      hotspot_fraction=0.01, seed=21),
        hours=(3, 14), hour_s=0.3, shard_cells=102,
        users_scale=0.005, max_users_per_cell=2, walkers_per_shard=1,
        fleet=("pbe",))
    (job,) = shard_jobs(mset, grid=build_grid(mset.grid))
    return job.params


def test_sparse_metro_batched_matches_scalar():
    params = _sparse_metro_params()
    assert len(params["cells"]) >= 100
    assert sum(1 for c in params["cells"] if c["busy"]) <= 2
    assert (_digest("sparse_metro", "sparse-fp", False)
            == _digest("sparse_metro", "sparse-fp", True))


# ---------------------------------------------------------------------------
# RNG-stream preservation: block channel sampling
# ---------------------------------------------------------------------------

def _channel_factories():
    return {
        "static": lambda: StaticChannel(15.0, fading_std_db=2.0, seed=9),
        "gauss": lambda: GaussMarkovChannel(
            mean_sinr_db=14.0, std_db=3.0, memory=0.9,
            coherence_us=8_000, seed=9),
        "trace": lambda: TraceChannel(
            [(0, -95.0), (200_000, -90.0), (500_000, -100.0)],
            fading_std_db=1.0, seed=9),
    }


@pytest.mark.parametrize("kind", sorted(_channel_factories()))
def test_sinr_block_is_bitwise_identical_to_scalar(kind):
    make = _channel_factories()[kind]
    scalar, blocked = make(), make()
    now = 0
    for _ in range(4):
        expected = np.array([scalar.sinr_db(now + k * SUBFRAME_US)
                             for k in range(64)])
        got = blocked.sinr_block(now, 64)
        # Bitwise, not approx: the engines must agree to the last ulp.
        assert got.tobytes() == expected.tobytes()
        now += 64 * SUBFRAME_US


@pytest.mark.parametrize("kind", sorted(_channel_factories()))
def test_block_and_scalar_interleave_preserves_the_stream(kind):
    """A block draw consumes the RNG exactly like 64 scalar draws, so
    block and scalar sampling can be freely interleaved."""
    make = _channel_factories()[kind]
    reference, mixed = make(), make()
    expected = [reference.sinr_db(k * SUBFRAME_US) for k in range(192)]
    got = list(mixed.sinr_block(0, 64))
    got += [mixed.sinr_db((64 + k) * SUBFRAME_US) for k in range(32)]
    got += list(mixed.sinr_block(96 * SUBFRAME_US, 96))
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def _cqi_swap_digest(reference: bool, at_s: float) -> str:
    """A PBE flow handed over to a new channel model at ``at_s`` on a
    network with a 4-subframe CQI-reporting delay."""
    scenario = Scenario(
        name="cqi-swap", aggregated_cells=2, mean_sinr_db=14,
        fading_std_db=3, busy=True, background_users=2,
        cqi_delay_subframes=4, duration_s=1, seed=7)
    experiment = (ReferenceExperiment if reference else Experiment)(scenario)
    handle = experiment.add_flow(FlowSpec(
        scheme="pbe", channel=StaticChannel(14, 3, seed=3)))
    experiment.schedule_handover(handle, at_s, [1, 0],
                                 channel=StaticChannel(9, 3, seed=11))
    results = experiment.run()
    return digest_run(experiment, [handle], results)


@pytest.mark.parametrize("at_s", [0.3205, 0.384],
                         ids=["mid-block", "block-boundary"])
def test_cqi_history_holds_only_consumed_subframes(at_s):
    """A channel swapped in mid-block must see, for its first CQI-delay
    subframes, the SINRs the old channel actually produced — not the
    unconsumed rest of the old block, which never happened."""
    assert _cqi_swap_digest(False, at_s) == _cqi_swap_digest(True, at_s)


def test_a_channel_model_belongs_to_one_live_user():
    """Sharing is rejected, not demoted: under block sampling a second
    user would read the stream the first one drew ahead."""
    experiment = Experiment(Scenario(name="one-owner", aggregated_cells=2,
                                     duration_s=0.1, seed=1))
    network = experiment.network
    channel, other = StaticChannel(15.0, 2.0, seed=1), StaticChannel(12.0)
    network.add_user(1, [0], channel)
    network.add_user(2, [0], other)
    with pytest.raises(ValueError, match="held by RNTI 1"):
        network.add_user(3, [0], channel)
    with pytest.raises(ValueError, match="held by RNTI 1"):
        network.add_exogenous_user(3, [0], channel, demand=None)
    with pytest.raises(ValueError, match="held by RNTI 2"):
        network.handover(1, [1], channel=other)
    assert 3 not in network._users
    assert network._users[1].agg.configured == [0]   # untouched
    experiment.sim.run(until_us=10 * SUBFRAME_US)
    # Handing a user its own channel is not a swap: the block stays.
    cursor = network.user(1)._blk_idx
    network.handover(1, [1], channel=channel)
    assert network.user(1)._blk_idx == cursor > 0
    # A departed user's model is free again.
    network.remove_user(2)
    network.handover(1, [1], channel=other)
    assert network.user(1).channel is other


# ---------------------------------------------------------------------------
# RNG-stream preservation: idle-cell control-traffic fast-forward
# ---------------------------------------------------------------------------

def _burst_snapshot(bursts):
    return [(b.rnti, b.prbs, b.remaining_subframes) for b in bursts]


@pytest.mark.parametrize("rate", [0.02, 0.15])
def test_advance_idle_reproduces_the_tick_timeline(rate):
    """The catch-up loop (advance_idle + tick) must emit the same burst
    timeline and leave the same RNG state as per-subframe ticking."""
    n = 600
    reference = ControlTrafficGenerator(rate, seed=3)
    fast = ControlTrafficGenerator(rate, seed=3)
    expected = [_burst_snapshot(reference.tick()) for _ in range(n)]

    got = []
    while len(got) < n:
        skipped = fast.advance_idle(n - len(got))
        got.extend([] for _ in range(skipped))
        if len(got) < n:
            got.append(_burst_snapshot(fast.tick()))
    assert got == expected
    assert (fast._rng.bit_generator.state
            == reference._rng.bit_generator.state)


def test_advance_idle_stops_before_a_bursty_subframe():
    generator = ControlTrafficGenerator(0.3, seed=1)
    probe = ControlTrafficGenerator(0.3, seed=1)
    skipped = generator.advance_idle(500)
    for _ in range(skipped):
        assert probe.tick() == []
    assert probe.tick() != []          # the subframe advance stopped at
    assert skipped < 500


def test_advance_idle_refuses_while_bursts_in_flight():
    generator = ControlTrafficGenerator(0.5, seed=2)
    while not generator._active:
        generator.tick()
    assert generator.advance_idle(100) == 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        **{kind: {key: _digest(kind, key, False)
                  for key in sorted(GOLDEN[kind])}
           for kind in ("pinned", "random", "sparse_metro")}},
        indent=1) + "\n")
