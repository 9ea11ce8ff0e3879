"""Mid-run checkpoint/restore: crash-consistent, byte-identical resume.

The checkpoint subsystem's contract is absolute: a run that snapshots
on a cadence, dies at an arbitrary subframe boundary and resumes from
the newest valid snapshot must produce the *byte-identical* whole-run
fingerprint of an uninterrupted run — packet logs, estimator state,
RNG streams and all.  These tests drive that contract over the pinned
6-configuration suite, randomized configurations crossed with
randomized kill points, and the corruption paths (truncated payloads,
snapshots from other code) that must quarantine bad snapshots and fall
back instead of crashing.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import statedict
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.checkpoint import (
    SNAPSHOT_SUFFIX,
    CheckpointConfig,
    CheckpointManager,
    SnapshotCorrupt,
    read_snapshot,
    write_snapshot,
)
from repro.harness.fingerprint import (
    digest_run,
    fingerprint_configs,
    run_fingerprint,
)
from repro.net.units import MSS_BITS, us_from_seconds
from repro.phy.channel import GaussMarkovChannel, StaticChannel
from repro.phy.dci import DciMessage, SubframeRecord

#: Long enough for CA activation and control-burst catch-up to fire,
#: short enough to keep the suite's many full runs affordable.
DURATION_S = 0.4
SUBFRAME_US = 1_000


def _build(scenario: Scenario, specs: list) -> tuple:
    experiment = Experiment(scenario)
    handles = [experiment.add_flow(spec) for spec in specs]
    return experiment, handles


def _resume_digest(scenario: Scenario, specs: list, directory,
                   interval: int) -> str:
    """Restore the newest snapshot under ``directory`` and finish."""
    experiment, handles = _build(scenario, specs)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(directory), interval_subframes=interval))
    manager.try_restore(experiment)
    results = experiment.run(checkpoint=manager)
    return digest_run(experiment, handles, results)


# ---------------------------------------------------------------------------
# Pinned suite: interrupt at a mid-run boundary, resume, compare
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fingerprint_configs(0.1)))
def test_pinned_suite_resume_matches_straight(name, tmp_path):
    # Configs embed stateful channel objects: rebuild them fresh for
    # every run or the first run's RNG consumption leaks into the next.
    scenario, specs = fingerprint_configs(DURATION_S)[name]
    straight = run_fingerprint(scenario, specs)

    interval = 120
    stop_us = us_from_seconds(DURATION_S / 2)
    scenario, specs = fingerprint_configs(DURATION_S)[name]
    experiment, _ = _build(scenario, specs)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=interval))
    manager.run_to(experiment, stop_us)  # "crash" here: discard it
    assert manager.saved >= 1

    scenario, specs = fingerprint_configs(DURATION_S)[name]
    assert _resume_digest(scenario, specs, tmp_path,
                          interval) == straight


def test_kill_point_with_packets_parked_on_the_wire(tmp_path):
    """Packets crossing the wired hop are link/ingress state, not heap
    entries: a snapshot taken with hundreds of them in flight must put
    every one back, due at the same instant."""
    scenario, specs = fingerprint_configs(DURATION_S)["idle_3cc_pbe"]
    straight = run_fingerprint(scenario, specs)

    scenario, specs = fingerprint_configs(DURATION_S)["idle_3cc_pbe"]
    experiment, handles = _build(scenario, specs)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, us_from_seconds(DURATION_S / 2))
    wire = experiment.network.ingress(handles[0].spec.rnti).wire
    parked = [(arrival_us, packet.seq) for arrival_us, packet in wire]
    assert len(parked) >= 100
    manager.save(experiment)  # what a kill point does, then SIGKILL

    scenario, specs = fingerprint_configs(DURATION_S)["idle_3cc_pbe"]
    experiment, handles = _build(scenario, specs)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == int(DURATION_S / 2 * 1000)
    wire = experiment.network.ingress(handles[0].spec.rnti).wire
    assert [(arrival_us, packet.seq)
            for arrival_us, packet in wire] == parked
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


def test_kill_point_with_a_half_pulled_head_and_held_acks(tmp_path):
    """The downlink queue's cut position is one int beside the packets
    (``_head_remaining``) and an uplink cycle's ACKs wait in ``_held``:
    a snapshot taken while the head packet is partly inside a transport
    block on the air and ACKs are waiting for their grant must restore
    both, and finish byte-identically."""
    kill_subframe = 84

    def config():
        return fingerprint_configs(DURATION_S)["idle_3cc_pbe"]

    def observe(experiment, handle):
        queue = experiment.network._users[handle.spec.rnti].queue
        ((_, blocks),) = experiment.network._air
        uplink = handle.uplink
        return (queue._head_remaining, [p.seq for p in queue._packets],
                queue.backlog_bits,
                [([p.seq for p in tb.completes],
                  tb.partial and tb.partial.seq) for tb, _ in blocks],
                [p.seq for p in uplink._held])

    straight = run_fingerprint(*config())

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    before = observe(experiment, handles[0])
    remaining, queued, backlog, touched, held = before
    assert queued and 0 < remaining < MSS_BITS       # head half pulled ...
    assert backlog == remaining + (len(queued) - 1) * MSS_BITS
    assert touched[-1][-1] == queued[0]              # ... into a block on the air
    assert len(held) >= 10                           # ACKs awaiting a grant
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    assert observe(experiment, handles[0]) == before
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


def test_kill_point_with_acks_held_for_their_grant_and_a_burst_in_flight(
        tmp_path):
    """Between the phone and the sender an ACK is either held for its
    grant (the uplink's ``_held``) or on its way in a flushed burst (one
    ``_deliver`` event of the uplink carrying the list for the sender's
    ``receive_batch``): a snapshot taken with both, on an ACK-impaired
    flow whose injector holds reordered ACKs back as well, must restore
    every ACK where it was — each burst still one event, bound to the
    restored uplink — and finish byte-identically."""
    kill_subframe = 144

    def config():
        return (Scenario(name="ck-uplink", aggregated_cells=2,
                         mean_sinr_db=18.0, duration_s=DURATION_S, seed=23),
                [FlowSpec(scheme="pbe", faults={
                    "seed": 3, "ack_loss_rate": 0.02,
                    "ack_reorder_rate": 0.05})])

    def observe(experiment, handle):
        """ACKs held, ``(due, ACKs)`` per burst in flight, ACKs the
        injector holds back; with the owner each event is bound to."""
        pending = [(time, event) for time, _, event in
                   sorted(experiment.sim._heap) if not event.cancelled]
        bursts = [(time, event.callback.__self__ is handle.uplink,
                   [ack.seq for ack in event.args[0]])
                  for time, event in pending
                  if event.callback.__name__ == "_deliver"]
        reordered = [(time, event.args[0].seq)
                     for time, event in pending
                     if event.callback.__name__ == "receive"
                     and event.callback.__self__ is handle.uplink]
        return ([ack.seq for ack in handle.uplink._held], bursts,
                reordered)

    straight = run_fingerprint(*config())

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    before = observe(experiment, handles[0])
    held, bursts, reordered = before
    assert len(held) >= 10                           # awaiting their grant
    assert len(bursts) >= 5                          # 20 ms of flushed bursts
    assert all(own and len(acks) >= 3 for _, own, acks in bursts)
    assert reordered                                 # held by the injector
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    assert observe(experiment, handles[0]) == before
    results = experiment.run(checkpoint=manager)
    assert results[0].fault_stats["ack_pipe"]["reordered"] > 0
    assert digest_run(experiment, handles, results) == straight


def test_kill_point_mid_channel_block_with_a_cqi_delay(tmp_path):
    """A user's channel state is its block cache plus the CQI history of
    the subframes it consumed (not the current block's): a snapshot
    taken part-way through every user's block, with a 4-subframe CQI
    delay, must restore both and finish byte-identically."""
    kill_subframe = 100   # 36 subframes into the second 64-subframe block

    def config():
        return fingerprint_configs(DURATION_S)["busy_1cc_gauss_cqi"]

    def observe(experiment):
        return {rnti: (user._blk_idx, user._blk_len, list(user._blk_sinr),
                       list(user._sinr_history))
                for rnti, user in experiment.network._users.items()}

    scenario, _ = config()
    assert scenario.cqi_delay_subframes == 4
    straight = run_fingerprint(*config())

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    before = observe(experiment)
    assert len(before) == 3                          # the flow + 2 background
    for cursor, length, _, history in before.values():
        assert 0 < cursor < length == 64             # mid-block ...
        assert len(history) == 5                     # ... delay + 1 consumed
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    assert observe(experiment) == before
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


def test_kill_point_with_blocks_and_an_abandon_on_the_air(
        tmp_path, monkeypatch):
    """Transport blocks crossing the air are network state, not heap
    entries: a snapshot taken with several of them in flight — one the
    UE is about to learn HARQ gave up on — must land every one at the
    top of the next tick, on the restored UE."""
    from repro.cell import basestation

    # 60 % of all attempts fail, so 13 % of blocks are abandoned.
    monkeypatch.setattr(basestation, "block_error_rate",
                        lambda ber, bits: 0.6)
    kill_subframe = 97

    def config():
        return (Scenario(name="ck-air", aggregated_cells=3,
                         duration_s=DURATION_S, seed=21),
                [FlowSpec(scheme="pbe")])

    straight = run_fingerprint(*config())

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    ((ue, blocks),) = experiment.network._air
    on_air = [(tb.seq, tb.cell_id, decoded) for tb, decoded in blocks]
    assert len(on_air) >= 2
    assert [decoded for _, _, decoded in on_air].count(False) == 1
    assert len(ue._reorder._held) > 0
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    ((ue, blocks),) = experiment.network._air
    assert ue is experiment.network.user(handles[0].spec.rnti).ue
    assert [(tb.seq, tb.cell_id, decoded)
            for tb, decoded in blocks] == on_air
    results = experiment.run(checkpoint=manager)
    assert ue.abandoned_tbs > 10
    assert digest_run(experiment, handles, results) == straight


def test_kill_point_with_a_dormant_and_a_volatile_cell(
        tmp_path, monkeypatch):
    """Tick rosters are derived state, the dormancy stamps are not: a
    snapshot taken on a sparse network while most cells are dormant
    (non-zero lag) and one is kept live only by a departed user's HARQ
    must resume to the same rebuilds, the same stamps and — once the
    cells wake — the same control-traffic streams."""
    from repro.cell import basestation
    from repro.phy.carrier import CarrierConfig
    from repro.traces.workload import OnOffRandomDemand

    monkeypatch.setattr(basestation, "block_error_rate",
                        lambda ber, bits: 0.6)
    kill_subframe, leaver, walker = 62, 700, 701

    def build():
        scenario = Scenario(
            name="ck-sparse",
            carriers=[CarrierConfig(cell_id=c) for c in range(24)],
            aggregated_cells=2, duration_s=DURATION_S, seed=5,
            control_arrivals_by_cell={c: 0.4 for c in range(24)})
        experiment, handles = _build(scenario, [FlowSpec(scheme="pbe")])
        network = experiment.network
        for rnti, cell in ((leaver, 5), (walker, 9)):
            network.add_exogenous_user(
                rnti, [cell], StaticChannel(18.0, 1.0, seed=rnti),
                OnOffRandomDemand(mean_on_s=50.0, mean_off_s=1e-3,
                                  rate_range_bps=(2e7, 3e7), seed=rnti))
        schedule = experiment.sim.schedule
        schedule(60_300, network.remove_user, leaver)
        schedule(150_300, network.handover, walker, [7])  # wakes 7
        schedule(250_300, network.handover, walker, [5])  # wakes 5
        return experiment, handles

    def finish(experiment, handles, manager=None):
        results = experiment.run(checkpoint=manager)
        network = experiment.network
        stamps = dict(network._dormant_since)
        assert stamps[9] == 151 and stamps[7] == 251 and stamps[20] == 0
        streams = {}
        for cell_id in (5, 7, 9, 20):
            network._catch_up_control(cell_id)
            generator = network._control[cell_id]
            streams[cell_id] = (generator._rng.bit_generator.state,
                                generator._next_rnti)
        return digest_run(experiment, handles, results), stamps, streams

    straight = finish(*build())

    experiment, handles = build()
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    network = experiment.network
    assert network._cell_retx_count[5] > 0  # volatile: HARQ only
    assert network._cell_user_count[5] == 0 and network._live_cells is None
    stamps = dict(network._dormant_since)
    assert stamps[7] == 0 and 5 not in stamps and len(stamps) == 20
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = build()
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    network = experiment.network
    assert network._dormant_since == stamps
    assert network._live_cells is None and leaver not in network._users
    assert finish(experiment, handles, manager) == straight


def test_kill_point_with_a_sender_blocked_unqueued_and_carried_answers(
        tmp_path):
    """A window-blocked CUBIC sender has nothing on the heap (only a
    callback can change its answers), and the PBE sender carries its
    controller's answers between wake-ups.  The first is heap state and
    survives as such; the second is derived state, dropped on restore
    and re-asked inside its horizon — the resumed run is byte-identical
    under the same code."""
    kill_subframe = 209

    def config():
        return fingerprint_configs(DURATION_S)["mixed_1cc_five_schemes"]

    def by_scheme(handles):
        return {handle.spec.scheme: handle for handle in handles}

    straight = run_fingerprint(*config())

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    now = experiment.sim.now
    cubic, pbe = by_scheme(handles)["cubic"], by_scheme(handles)["pbe"]
    sender = cubic.sender
    assert sender.running and not sender._pacing_active
    assert sender.inflight_bits + sender.mss_bits > cubic.cc.cwnd_bits(now)
    assert sender._pace_event is None                # blocked, unqueued
    assert pbe.sender._held_until >= now             # answers carried
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    cubic, pbe = by_scheme(handles)["cubic"], by_scheme(handles)["pbe"]
    assert cubic.sender._pace_event is None
    assert pbe.sender._held_until == -1              # re-asked on waking
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


def test_kill_point_with_a_subframe_still_open_in_the_monitor(tmp_path):
    """Per-cell decoder outages: at the kill subframe one cell's record
    was dropped, so the monitor has folded the other cell's record but
    not yet closed the subframe's bookkeeping.  The open subframe is
    monitor state; the next subframe's first record closes it after the
    restore exactly as it would have without the kill."""
    kill_subframe = 152

    def config():
        return fingerprint_configs(DURATION_S)["outage_2cc_pbe"]

    straight = run_fingerprint(*config())

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    manager.run_to(experiment, kill_subframe * SUBFRAME_US)
    monitor = handles[0].monitor
    assert len(monitor.estimators) == 2
    assert monitor._pending == 1
    assert monitor._subframe == kill_subframe
    assert monitor.last_subframe == kill_subframe - 1
    manager.save(experiment)  # what a kill point does, then SIGKILL

    experiment, handles = _build(*config())
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=1_000))
    assert manager.try_restore(experiment) == kill_subframe
    monitor = handles[0].monitor
    assert monitor._pending == 1 and monitor._subframe == kill_subframe
    assert monitor.last_subframe == kill_subframe - 1
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


# ---------------------------------------------------------------------------
# Randomized configurations x randomized kill points
# ---------------------------------------------------------------------------

def _random_config(rng: random.Random) -> tuple:
    busy = rng.random() < 0.5
    scenario = Scenario(
        name=f"ck-rand-{rng.randrange(1 << 16)}",
        aggregated_cells=rng.choice((1, 2)),
        mean_sinr_db=rng.uniform(12.0, 22.0),
        busy=busy,
        background_users=rng.randrange(1, 4) if busy else 0,
        duration_s=DURATION_S,
        seed=rng.randrange(1, 1 << 30))
    if rng.random() < 0.5:
        channel = GaussMarkovChannel(
            mean_sinr_db=rng.uniform(12.0, 20.0), std_db=2.5,
            memory=0.9, coherence_us=8_000,
            seed=rng.randrange(1, 1 << 30))
    else:
        channel = StaticChannel(rng.uniform(12.0, 22.0),
                                fading_std_db=1.0,
                                seed=rng.randrange(1, 1 << 30))
    spec_kwargs = {"scheme": rng.choice(("pbe", "pbe", "bbr")),
                   "channel": channel}
    return scenario, spec_kwargs


def _fresh_specs(rng_seed: int) -> list:
    """Specs with a *fresh* channel object (stateful; never reuse)."""
    _, kwargs = _random_config(random.Random(rng_seed))
    return [FlowSpec(**kwargs)]


def test_randomized_configs_and_kill_points(tmp_path):
    """>= 10 randomized (config, kill-subframe) points, all identical."""
    duration_subframes = int(DURATION_S * 1000)
    outer = random.Random(0xC4EC)
    kill_points = 0
    for case in range(3):
        seed = outer.randrange(1 << 30)
        scenario, _ = _random_config(random.Random(seed))
        straight = run_fingerprint(scenario, _fresh_specs(seed))
        for point in range(4):
            interval = outer.randrange(60, 200)
            stop = outer.randrange(1, duration_subframes)
            root = tmp_path / f"case{case}-kill{point}"
            scenario, _ = _random_config(random.Random(seed))
            experiment, _ = _build(scenario, _fresh_specs(seed))
            manager = CheckpointManager(CheckpointConfig(
                directory=str(root), interval_subframes=interval))
            manager.run_to(experiment, stop * SUBFRAME_US)

            scenario, _ = _random_config(random.Random(seed))
            resumed = _resume_digest(scenario, _fresh_specs(seed),
                                     root, interval)
            assert resumed == straight, (
                f"divergence: seed={seed} interval={interval} "
                f"kill_subframe={stop}")
            kill_points += 1
    assert kill_points >= 10


# ---------------------------------------------------------------------------
# Corruption: truncation, other code, quarantine accounting
# ---------------------------------------------------------------------------

def _config_for_corruption() -> tuple:
    scenario = Scenario(name="ck-corrupt", busy=True,
                        background_users=2, aggregated_cells=2,
                        duration_s=DURATION_S, seed=55)
    return scenario, [FlowSpec(scheme="pbe")]


def _snapshot_two(tmp_path, interval: int = 120) -> None:
    scenario, specs = _config_for_corruption()
    experiment, _ = _build(scenario, specs)
    # wall_budget=None: this helper needs a snapshot at *every*
    # boundary (the corruption tests truncate the newest and fall back
    # to the older one), not the amortized production cadence.
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=interval,
        wall_budget=None))
    manager.run_to(experiment, 2 * interval * SUBFRAME_US + 500)
    assert manager.saved >= 2


def test_truncated_snapshot_quarantined_then_older_used(tmp_path):
    scenario, specs = _config_for_corruption()
    straight = run_fingerprint(scenario, specs)

    _snapshot_two(tmp_path)
    newest = sorted(tmp_path.glob(f"*{SNAPSHOT_SUFFIX}"))[-1]
    blob = newest.read_bytes()
    newest.write_bytes(blob[:len(blob) // 2])  # torn write

    scenario, specs = _config_for_corruption()
    experiment, handles = _build(scenario, specs)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=120))
    restored = manager.try_restore(experiment)
    assert restored == 120  # fell back to the older snapshot
    assert manager.quarantined == 1
    assert len(list(tmp_path.glob("*.quarantined"))) == 1
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


def test_unknown_version_quarantined_then_from_scratch(tmp_path):
    scenario, specs = _config_for_corruption()
    straight = run_fingerprint(scenario, specs)

    # A single snapshot from other code: nothing valid remains after
    # quarantining it, so the run must fall back to from-scratch.
    path = write_snapshot(tmp_path, 100, {"sim": {}})
    blob = path.read_bytes()
    header, _, payload = blob.partition(b"\n")
    doctored = json.loads(header)
    doctored["code"] = "0" * 64
    path.write_bytes(json.dumps(doctored, sort_keys=True).encode()
                     + b"\n" + payload)

    scenario, specs = _config_for_corruption()
    experiment, handles = _build(scenario, specs)
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), interval_subframes=120))
    assert manager.try_restore(experiment) is None
    assert manager.quarantined == 1
    assert len(list(tmp_path.glob("*.quarantined"))) == 1
    results = experiment.run(checkpoint=manager)
    assert digest_run(experiment, handles, results) == straight


def test_dci_messages_ride_the_snapshot_as_shared_identity_records(
        tmp_path):
    """``DciMessage`` is a named tuple now; it must still cross the
    codec and the restricted unpickler as itself — not be walked as a
    plain tuple — with aliasing preserved."""
    message = DciMessage(3, 0, 61, 10, 12, 2, 5_000, new_data=False)
    record = SubframeRecord(3, 0, 100, [message])
    tree = statedict.encode_value(
        {"sim": {}, "pending": [message, record], "again": message})
    assert tree["again"] is message
    _, doc = read_snapshot(write_snapshot(tmp_path, 3, tree))
    decoded = statedict.decode_value(doc)
    first, restored = decoded["pending"]
    assert type(first) is DciMessage and first == message
    assert first is decoded["again"] is restored.messages[0]
    assert (restored.subframe, restored.total_prbs) == (3, 100)


def test_read_snapshot_rejects_bad_checksum(tmp_path):
    path = write_snapshot(tmp_path, 7, {"sim": {"now": 0}})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotCorrupt):
        read_snapshot(path)


def test_wall_budget_throttles_boundary_saves(tmp_path):
    manager = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), wall_budget=0.05))
    # First eligible boundary always saves (no cost estimate yet).
    assert manager._should_save()
    # An expensive save just finished: the boundary right after it must
    # be skipped until ~19x its cost has elapsed.
    import time as _time
    manager._save_cost = 3600.0
    manager._last_save_end = _time.monotonic()
    assert not manager._should_save()
    # A long-amortized save is allowed again.
    manager._last_save_end = _time.monotonic() - 20.0 * 3600.0
    assert manager._should_save()
    # Disabling the budget saves at every boundary.
    unthrottled = CheckpointManager(CheckpointConfig(
        directory=str(tmp_path), wall_budget=None))
    unthrottled._save_cost = 3600.0
    unthrottled._last_save_end = _time.monotonic()
    assert unthrottled._should_save()
