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
from unittest import mock

import pytest

from repro.baselines import Bbr, Sender
from repro.cell import basestation
from repro.cell.basestation import CHANNEL_BLOCK_SUBFRAMES, CellularNetwork
from repro.cli import main
from repro.core.sender import PbeSender
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.fingerprint import fingerprint_configs, run_fingerprint
from repro.harness.runner import BACKGROUND_RNTI_BASE
from repro.metro import build_shard, shard_fingerprint
from repro.metro.shard import _ShardRun
from repro.monitor.pbe import PbeMonitor
from repro.net.link import BatchingPipe
from repro.perf import PerfCounters
from repro.phy import dci
from repro.phy.channel import (ChannelModel, GaussMarkovChannel,
                               StaticChannel, TraceChannel)

from .reference_cc import ReferenceBbr, ReferencePbeSender
from .reference_engine import ReferenceExperiment, reference_engine
from .reference_pacer import ReferenceSender
from .test_batch_engine import DURATION_S, _sparse_metro_params


@functools.cache
def _observe(name: str, reference: bool) -> dict:
    """Run one pinned config, stopping every millisecond to look for a
    flushed ACK burst on its way to the sender; returns what the run
    left behind."""
    scenario, specs = fingerprint_configs(DURATION_S)[name]
    perf = PerfCounters()
    experiment = (ReferenceExperiment if reference else Experiment)(
        scenario)
    experiment.sim.perf = experiment.network.perf = perf
    (handle,) = [experiment.add_flow(spec) for spec in specs]
    staged = 0
    for ms in range(1, int(DURATION_S * 1000)):
        experiment.sim.run(until_us=ms * 1000 + 500)
        staged += any(
            getattr(event.callback, "__name__", "") == "_deliver"
            for _, _, event in experiment.sim._heap)
    experiment.run()
    return {
        "events_scheduled": perf.events_scheduled,
        "ack_batches": perf.ack_batches,
        "acks_forwarded": handle.uplink.forwarded,
        "staged_instants": staged,
        "subframes": experiment.network.subframe,
        "folded": (None if handle.monitor is None
                   else {est._count for est in
                         handle.monitor.estimators.values()}),
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
    # The engine's flush is one ``_deliver`` event carrying the burst
    # (20 ms in flight, so one is pending at nearly every instant); the
    # reference's is an event per ACK and never schedules one.
    assert _observe("idle_3cc_pbe", True)["staged_instants"] == 0
    assert _observe("idle_3cc_pbe", False)["staged_instants"] > 50


def test_reference_fuses_one_snapshot_per_subframe():
    # ... and so does the engine: there is one ingest path.
    for reference in (False, True):
        observed = _observe("idle_3cc_pbe", reference)
        assert observed["folded"] == {observed["subframes"]}
        assert observed["subframes"] > 0


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


def test_reference_sender_wakes_for_every_packet_and_polls():
    """The reference's senders are the per-packet pacer: one wake-up per
    packet sent plus a 1 ms poll whenever blocked.  The engine's trains
    and callback-bound answers need far fewer on the five-scheme cell."""
    wake_ups = {}

    def run(reference):
        cls = ReferenceSender if reference else Sender
        pace = cls._pace

        def counting(self):
            wake_ups[reference] = wake_ups.get(reference, 0) + 1
            pace(self)

        scenario, specs = fingerprint_configs(DURATION_S)[
            "mixed_1cc_five_schemes"]
        with mock.patch.object(cls, "_pace", counting):
            experiment = (ReferenceExperiment if reference
                          else Experiment)(scenario)
            handles = [experiment.add_flow(spec) for spec in specs]
            experiment.run()
        assert {type(h.sender) for h in handles} == {cls}
        return sum(h.sender.sent_packets for h in handles)

    sent = run(True)
    assert run(False) == sent > 2_000
    assert wake_ups[True] > 1.2 * sent      # every packet, and the polls
    assert wake_ups[False] < 0.9 * wake_ups[True]


def test_reference_flows_run_the_per_ack_controllers():
    """BBR and PBE-CC flows of the reference fold every ACK through the
    frozen per-ACK bodies, not through the engine's burst bodies."""
    scenario, specs = fingerprint_configs(DURATION_S)[
        "mixed_1cc_five_schemes"]
    kinds = {}
    for reference in (False, True):
        experiment = (ReferenceExperiment if reference
                      else Experiment)(scenario)
        kinds[reference] = {h.spec.scheme: type(h.cc)
                            for h in map(experiment.add_flow, specs)}
    assert kinds[False]["bbr"] is Bbr and kinds[False]["pbe"] is PbeSender
    assert kinds[True]["bbr"] is ReferenceBbr
    assert kinds[True]["pbe"] is ReferencePbeSender
    assert kinds[True]["cubic"] is kinds[False]["cubic"]


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
                 _ShardRun, build_shard, shard_fingerprint,
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


def test_one_delivery_contract():
    """Every endpoint takes a burst through one contract: no per-packet
    twin, no hook that demotes a burst, no burst container and no
    capability probe is left in the delivery modules."""
    from repro.baselines import base
    from repro.baselines.base import AckingReceiver
    from repro.cell import ue
    from repro.cell.ue import UserEquipment
    from repro.core import client
    from repro.core.client import PbeClient
    from repro.faults import pipe
    from repro.net import link, packet
    from repro.net.link import Receiver

    for module in (link, base, client, pipe, ue):
        assert "getattr(" not in inspect.getsource(module), module
    assert not hasattr(packet, "AckBatch")
    experiment = Experiment(Scenario(name="gone", duration_s=0.1))
    handle = experiment.add_flow(FlowSpec(scheme="pbe"))
    ue_obj = experiment.network.user(handle.spec.rnti).ue
    for owner, names in (
            (handle.receiver, ("feedback_for", "_forward_acks",
                               "_rtprop_us", "_prune_recent",
                               "_receive_rate_bps", "_npkt", "_switch")),
            (AckingReceiver, ("feedback_for", "_forward_acks")),
            (handle.sender, ("_detect_losses",)),
            (handle.uplink, ("_mixed",)),
            (ue_obj, ("on_packet",))):
        assert not [n for n in names if hasattr(owner, n)], owner
    for func in (UserEquipment, experiment.network.add_user):
        assert "on_packet" not in inspect.signature(func).parameters
    assert "on_packet" not in UserEquipment.SNAPSHOT_SKIP
    # The engine hands the UE's bursts to the client's burst body.
    assert ue_obj.on_packet_block == handle.receiver.receive_block
    assert type(handle.receiver) is PbeClient
    # The defaults: a sink with only ``receive`` takes bursts as its
    # loop and refuses a stamped hand-over.
    got = []

    class Plain(Receiver):
        def receive(self, packet):
            got.append(packet)

    burst = [packet.Packet(1, seq) for seq in range(3)]
    Plain().receive_block(burst[:2])
    Plain().receive_batch(burst[2:])
    assert got == burst
    assert Plain().receive_at(burst[0], 5) is False
