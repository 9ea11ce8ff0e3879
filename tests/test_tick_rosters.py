"""Tick rosters: the tick visits only live cells and each cell only its
own users (DESIGN.md, "The subframe tick and its rosters").

The oracle is ``tests/reference_engine.py``, which ticks every
configured cell every subframe and filters every user per cell, from
scratch each tick.  The differential tests drive both through random
schedules of ``add_user`` / ``add_exogenous_user`` / ``remove_user`` /
``handover`` / ``attach_monitor`` on 12-40-carrier networks, with a
block error rate high enough that users routinely depart with HARQ
still pending (the volatile case), and compare everything observable.  The white-box test
checks, after every tick of the engine, the rule itself: a cell is
ticked iff the three-clause predicate holds at the top of that tick, the
rosters equal the from-scratch filters, and a dormant cell's stamp
replays exactly the ticks it was skipped.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cell import basestation
from repro.harness import Experiment, FlowSpec, Scenario
from repro.harness.fingerprint import digest_run
from repro.net.packet import Packet
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel
from repro.traces.workload import ScheduledDemand

from .reference_engine import ReferenceExperiment

DURATION_MS = 240
#: Every first transmission and every retransmission fails this often,
#: so a departing user leaves HARQ processes behind about as often as not.
BLER = 0.3
FIRST_RNTI = 500

_OPS = st.lists(
    st.tuples(st.integers(0, DURATION_MS - 10),          # at, ms
              st.sampled_from(["toggle", "toggle", "handover", "monitor"]),
              st.integers(0, 5),                         # RNTI slot
              st.integers(0, 2 ** 16)),                  # salt
    max_size=24)
_CELLS = st.integers(12, 40)


def _apply(experiment: Experiment, records: dict, n_cells: int,
           kind: str, slot: int, salt: int) -> None:
    """One schedule entry, made valid against the network's own state
    (which engine and reference share for as long as they agree)."""
    network = experiment.network
    rnti = FIRST_RNTI + slot
    primary = salt % n_cells
    cells = [(primary + j) % n_cells for j in range(1 + (salt >> 8) % 3)]
    channel = StaticChannel(3.0 + salt % 20, fading_std_db=1.0, seed=salt)
    if kind == "monitor":
        network.attach_monitor(
            primary, records.setdefault(primary, []).append)
    elif rnti not in network._users:
        if salt & 1:
            network.add_exogenous_user(
                rnti, cells, channel,
                ScheduledDemand([(0.0, 4e6 + salt % 30_000 * 1e3)]))
        else:
            network.add_user(rnti, cells, channel)
            for seq in range(150):
                network.enqueue(rnti, Packet(flow_id=rnti, seq=seq,
                                             size_bits=12_000))
    elif kind == "toggle":
        network.remove_user(rnti)
    else:
        with mock.patch.object(basestation, "HANDOVER_GAP_SUBFRAMES",
                               salt % 5):
            network.handover(rnti, cells,
                             channel=channel if salt & 2 else None)


def _build(n_cells: int, ops: list, reference: bool) -> tuple:
    scenario = Scenario(
        name="rosters",
        carriers=[CarrierConfig(cell_id=c,
                                bandwidth_mhz=(20.0, 10.0, 5.0)[c % 3])
                  for c in range(n_cells)],
        aggregated_cells=2,
        duration_s=DURATION_MS / 1000, seed=n_cells,
        control_arrivals_by_cell={c: (0.4 if c % 2 else 0.05)
                                  for c in range(n_cells)})
    experiment = (ReferenceExperiment if reference else Experiment)(
        scenario)
    handle = experiment.add_flow(FlowSpec(scheme="pbe"))
    records: dict = {}
    for at_ms, kind, slot, salt in ops:
        experiment.sim.schedule(at_ms * 1000 + 300, _apply, experiment,
                                records, n_cells, kind, slot, salt)
    return experiment, handle, records


def _observable(n_cells: int, ops: list, cuts: list,
                reference: bool) -> tuple[dict, int]:
    """Everything observable after a run, and how many cells ended it
    dormant."""
    with mock.patch.object(basestation, "block_error_rate",
                           lambda ber, bits: BLER):
        experiment, handle, records = _build(n_cells, ops, reference)
        for cut in sorted(cuts):
            experiment.sim.run(until_us=cut)
        results = experiment.run()
    network = experiment.network
    dormant = len(network._dormant_since)
    control = {}
    for cell_id, generator in network._control.items():
        network._catch_up_control(cell_id)
        control[cell_id] = (
            generator._rng.bit_generator.state, generator._next_rnti,
            [(b.rnti, b.prbs, b.remaining_subframes)
             for b in generator._active])
    return {
        "digest": digest_run(experiment, [handle], results),
        "dci": {cell_id: [(r.subframe, r.total_prbs, tuple(r.messages))
                          for r in stream]
                for cell_id, stream in records.items()},
        "control": control,
    }, dormant


@settings(max_examples=25, deadline=None)
@given(n_cells=_CELLS, ops=_OPS,
       cuts=st.lists(st.integers(1, DURATION_MS * 1000), max_size=3))
def test_batched_matches_scalar_under_random_schedules(n_cells, ops, cuts):
    engine, _ = _observable(n_cells, ops, cuts, reference=False)
    reference, dormant = _observable(n_cells, ops, [], reference=True)
    assert dormant == 0
    assert engine == reference


def _observable_now(network, cell_id: int) -> bool:
    """The three-clause liveness predicate, from scratch."""
    return (bool(network._monitors[cell_id])
            or network._cell_user_count[cell_id] > 0
            or network._cell_retx_count[cell_id] > 0)


@settings(max_examples=20, deadline=None)
@given(n_cells=_CELLS, ops=_OPS)
def test_rule_holds_after_every_tick(n_cells, ops):
    with mock.patch.object(basestation, "block_error_rate",
                           lambda ber, bits: BLER):
        experiment, _, _ = _build(n_cells, ops, reference=False)
        network, sim = experiment.network, experiment.sim
        cells = list(network.carriers)
        ticked: list[int] = []
        #: The counter the stamp replaced: +1 per skipped tick, reset
        #: by a catch-up.
        lag = dict.fromkeys(cells, 0)
        volatile_ticks = 0

        tick_cell = network._tick_cell
        catch_up = network._catch_up_control

        def counting_tick_cell(cell_id, *args):
            ticked.append(cell_id)
            tick_cell(cell_id, *args)

        def checking_catch_up(cell_id):
            since = network._dormant_since.get(cell_id)
            replayed = 0 if since is None else network.subframe - since
            assert replayed == lag[cell_id]
            lag[cell_id] = 0
            catch_up(cell_id)

        network._tick_cell = counting_tick_cell
        network._catch_up_control = checking_catch_up

        for k in range(DURATION_MS):
            # Schedule entries sit at k·1000 − 700 µs, the tick at
            # k·1000: stop between the two, then just past the tick.
            if k:
                sim.run(until_us=k * 1000 - 500)
            expected = [c for c in cells if _observable_now(network, c)]
            del ticked[:]
            sim.run(until_us=k * 1000 + 200)
            assert ticked == expected

            since = network._dormant_since
            for c in cells:
                if c not in expected:
                    lag[c] += 1
                assert lag[c] == (network.subframe - since[c]
                                  if c in since else 0)

            live = network._live_cells
            if live is None:  # a retx-only cell, or a CA switch
                volatile_ticks += 1
                continue
            users = list(network._users.values())
            assert live == [(c, network.carriers[c].total_prbs)
                            for c in cells if _observable_now(network, c)]
            assert network._cell_roster == {
                c: [u for u in users if c in u.active_cell_set]
                for c, _ in live}
            assert network._user_list == users
            assert network._exo_users == [
                u for u in users if u.demand_source is not None]
            assert network._ca_users == [
                u for u in users if len(u.agg.configured) != 1]
        # Staleness is the exception: a schedule entry, a CA switch, or
        # at most 3 x 8 ms of HARQ drain after a departure.
        assert volatile_ticks <= len(ops) * 30 + 30
