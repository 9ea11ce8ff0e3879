"""The oracle must stay an oracle, and the switch must stay gone.

``tests/reference_engine.py`` is only worth comparing against while it
really takes the slow paths the engine skips or batches; if a refactor
quietly routed it through the engine's own shortcuts, every
differential test would pass by comparing the engine with itself.
These tests watch the reference do the extra work, and check that no
callable takes an engine-selecting option any more.
"""

from __future__ import annotations

import functools
import inspect

import pytest

from repro.baselines import Sender
from repro.cell import basestation
from repro.cell.basestation import CHANNEL_BLOCK_SUBFRAMES, CellularNetwork
from repro.cli import main
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.fingerprint import fingerprint_configs, run_fingerprint
from repro.harness.runner import BACKGROUND_RNTI_BASE
from repro.metro import build_shard, run_shard, shard_fingerprint
from repro.metro.shard import _ShardRun
from repro.monitor.pbe import PbeMonitor
from repro.net.link import BatchingPipe
from repro.net.packet import AckBatch
from repro.perf import PerfCounters
from repro.phy import dci
from repro.phy.channel import (ChannelModel, GaussMarkovChannel,
                               StaticChannel, TraceChannel)

from .reference_engine import ReferenceExperiment, reference_engine
from .test_batch_engine import DURATION_S, _sparse_metro_params


@functools.cache
def _observe(name: str, reference: bool) -> dict:
    """Run one pinned config, stopping every millisecond to look for an
    :class:`AckBatch` on its way to the sender; returns what the run
    left behind."""
    scenario, specs = fingerprint_configs(DURATION_S)[name]
    perf = PerfCounters()
    experiment = (ReferenceExperiment if reference else Experiment)(
        scenario, perf_counters=perf)
    (handle,) = [experiment.add_flow(spec) for spec in specs]
    staged = 0
    for ms in range(1, int(DURATION_S * 1000)):
        experiment.sim.run(until_us=ms * 1000 + 500)
        staged += any(event.args and isinstance(event.args[0], AckBatch)
                      for _, _, event in experiment.sim._heap)
    experiment.run()
    return {
        "events_scheduled": perf.events_scheduled,
        "ack_batches": perf.ack_batches,
        "acks_forwarded": handle.uplink.forwarded,
        "staged_instants": staged,
        "subframes": experiment.network.subframe,
        "fused": (None if handle.monitor is None
                  else handle.monitor.fusion.emitted),
        "ca_observed": set(experiment.network.ca._users),
        "block_subframes": {u._blk_len
                            for u in experiment.network._users.values()},
    }


def test_reference_schedules_an_event_per_ack_and_per_packet():
    engine = _observe("idle_3cc_pbe", False)
    reference = _observe("idle_3cc_pbe", True)
    assert engine["acks_forwarded"] == reference["acks_forwarded"] > 1000
    assert reference["events_scheduled"] >= 3 * engine["events_scheduled"]
    assert reference["ack_batches"] == 0 < engine["ack_batches"]


def test_reference_never_stages_the_uplink():
    # The engine's flush is one AckBatch event (20 ms in flight, so one
    # is pending at nearly every instant); the reference's is an event
    # per ACK and never builds one.
    assert _observe("idle_3cc_pbe", True)["staged_instants"] == 0
    assert _observe("idle_3cc_pbe", False)["staged_instants"] > 50


def test_reference_fuses_one_snapshot_per_subframe():
    # ... and so does the engine: there is one ingest path.
    for reference in (False, True):
        observed = _observe("idle_3cc_pbe", reference)
        assert observed["fused"] == observed["subframes"] > 0


def test_reference_observes_single_cell_users_and_samples_per_subframe():
    engine = _observe("busy_2cc_bbr", False)
    reference = _observe("busy_2cc_bbr", True)
    background = {BACKGROUND_RNTI_BASE, BACKGROUND_RNTI_BASE + 1}
    assert background <= reference["ca_observed"]
    assert not background & engine["ca_observed"]
    assert len(reference["ca_observed"]) == len(engine["ca_observed"]) + 2
    # Both take the one channel path; the reference's blocks are one
    # subframe of scalar sampling, the engine's are 64.
    assert reference["block_subframes"] == {1}
    assert engine["block_subframes"] == {CHANNEL_BLOCK_SUBFRAMES} == {64}


def test_reference_ticks_every_cell_of_the_sparse_shard():
    params = _sparse_metro_params()
    engine = build_shard(params)
    engine.run()
    assert len(engine.experiment.network._dormant_since) >= 90
    with reference_engine():
        reference = build_shard(params)
    assert isinstance(reference.experiment, ReferenceExperiment)
    reference.run()
    assert reference.experiment.network._dormant_since == {}


def test_no_engine_switch(capsys):
    for func in (CellularNetwork, Experiment, BatchingPipe, PbeMonitor,
                 _ShardRun, build_shard, run_shard, shard_fingerprint,
                 run_fingerprint):
        names = set(inspect.signature(func).parameters)
        assert not names & {"batched", "batch_ingest"}, func
    assert not inspect.signature(PerfCounters).parameters
    # The columnar DCI ingest is gone too, not hidden behind a name.
    assert not hasattr(dci, "SubframeBatch")
    monitor = PbeMonitor(1, {0: 100}, 0, own_rate_hint=lambda: (1, 0.0))
    for owner, names in ((monitor, ("batch_ingest", "_drain")),
                         (monitor.estimators[0],
                          ("update_block", "update_one"))):
        assert not [n for n in names if hasattr(owner, n)], owner
    # So is the per-subframe channel fork with its sharer registry and
    # RNG rewind, and the per-ACK hook that demoted batches.
    experiment = Experiment(Scenario(name="gone", duration_s=0.1))
    handle = experiment.add_flow(FlowSpec(scheme="bbr"))
    network = experiment.network
    user = network.user(handle.spec.rnti)
    for owner, names in (
            (basestation, ("_BLOCK_SAFE_CHANNELS",)),
            (network, ("_register_channel", "_channel_users")),
            (user, ("refresh_channel", "block_safe", "_blk_ckpt",
                    "_blk_start_us", "release_channel_block")),
            (ChannelModel, ("state_checkpoint", "state_restore")),
            *((model, ("state_checkpoint", "state_restore"))
              for model in (StaticChannel, GaussMarkovChannel,
                            TraceChannel)),
            (handle.sender, ("on_ack_hook",))):
        assert not [n for n in names if hasattr(owner, n)], owner
    assert "_channel_users" not in CellularNetwork.SNAPSHOT_SKIP
    assert "on_ack_hook" not in Sender.SNAPSHOT_SKIP
    with pytest.raises(SystemExit) as exit_info:
        main(["perf"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'perf'" in capsys.readouterr().err
