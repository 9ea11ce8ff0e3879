"""Regression tests for the hot-path bugfix PR.

Each test here fails on the pre-PR code:

* scheduler idle-PRB leak — remainder PRBs freed by demand caps or by
  float truncation of the weighted shares were dropped instead of
  redistributed;
* event-heap accounting — the simulator's live-event count counted
  lazily cancelled corpses as pending;

plus exact-equivalence suites for the rolling-sum rewrites (capacity
estimator, CA manager): the optimized implementations must be
*bit-for-bit* identical to the naive re-scan they replaced, because
their outputs feed simulation decisions and determinism is a repo
invariant.
"""

import random
from collections import deque

from repro.cell.ca_manager import CaPolicy, CarrierAggregationManager
from repro.cell.scheduler import DemandEntry, allocate_prbs
from repro.monitor.capacity import CellCapacityEstimator
from repro.monitor.filters import ActiveUserFilter
from repro.net.sim import Simulator
from repro.phy.carrier import AggregationState
from repro.phy.dci import DciMessage, SubframeRecord
from repro.traces.workload import ScheduledDemand

from .reference_bursttracker import prbs_for


# ----------------------------------------------------------------------
# Scheduler: idle-PRB leak
# ----------------------------------------------------------------------
def _total(grants):
    return sum(grants.values())


def test_scheduler_redistributes_truncation_leak():
    """Huge PRB budgets leaked grants to float truncation pre-PR.

    At ``available >= ~2**53 / n`` the float division inside the
    remainder round truncates enough that ``leftover`` exceeds the
    user count, and the rotating +1 extras could not hand all of it
    out.  The redistribution loop must allocate every PRB whenever
    demand exceeds supply.
    """
    for available in (10**17, 10**18):
        demands = [DemandEntry(rnti=i, demand_bits=10**19,
                               bits_per_prb=1) for i in range(3)]
        grants = allocate_prbs(available, demands, rotation=0)
        assert _total(grants) == available, (
            f"leaked {available - _total(grants)} PRBs at {available}")


def test_scheduler_capped_users_free_prbs_for_backlogged():
    """PRBs a capped user does not need go to backlogged users."""
    demands = [
        DemandEntry(rnti=1, demand_bits=100, bits_per_prb=100),   # 1 PRB
        DemandEntry(rnti=2, demand_bits=10**9, bits_per_prb=100),
        DemandEntry(rnti=3, demand_bits=10**9, bits_per_prb=100),
    ]
    grants = allocate_prbs(99, demands, rotation=5)
    assert grants[1] == 1
    assert _total(grants) == 99  # nothing idles while users backlog


def _brute_force_equal(available, demands):
    """Reference allocator: hand out one PRB at a time, round-robin
    over users still below demand.  Shares differ from water-filling
    by at most rounding, but the *totals* invariant is exact."""
    need = {d.rnti: d.demand_prbs for d in demands if d.demand_prbs > 0}
    got = {rnti: 0 for rnti in need}
    order = sorted(need)
    while available > 0:
        live = [r for r in order if got[r] < need[r]]
        if not live:
            break
        for rnti in live:
            if available == 0:
                break
            got[rnti] += 1
            available -= 1
    return {r: g for r, g in got.items() if g > 0}


def test_scheduler_totals_match_brute_force():
    """Property: total granted == min(supply, total demand), per-user
    grant <= demand, across random capped/backlogged mixes."""
    rng = random.Random(20260806)
    for trial in range(300):
        n = rng.randint(1, 10)
        demands = [
            DemandEntry(rnti=i,
                        demand_bits=rng.choice(
                            [0, rng.randint(1, 5_000),
                             rng.randint(10**6, 10**8)]),
                        bits_per_prb=rng.randint(1, 2_000))
            for i in range(n)]
        available = rng.randint(0, 300)
        grants = allocate_prbs(available, demands,
                               rotation=rng.randint(0, 10_000))
        reference = _brute_force_equal(available, demands)
        assert _total(grants) == _total(reference)
        by_rnti = {d.rnti: d.demand_prbs for d in demands}
        for rnti, prbs in grants.items():
            assert 0 < prbs <= by_rnti[rnti]


def test_scheduler_leak_free_under_weighted_shares():
    """The redistribution loop also closes the gap for the weighted
    ``equal_rate`` policy, where truncation losses are far easier to
    hit than under equal shares."""
    demands = [DemandEntry(rnti=i, demand_bits=10**9, bits_per_prb=rate)
               for i, rate in ((1, 7), (2, 500), (3, 1999))]
    for available in (7, 100, 9973):
        grants = allocate_prbs(available, demands, rotation=3,
                               policy="equal_rate")
        assert _total(grants) == available


# ----------------------------------------------------------------------
# Event-heap lazy deletion
# ----------------------------------------------------------------------
def test_pending_events_excludes_cancelled():
    sim = Simulator()
    events = [sim.schedule(10 + i, lambda: None) for i in range(20)]
    for event in events[::2]:
        event.cancel()
    assert len(sim._heap) - sim._cancelled == 10


def test_cancellation_preserves_fire_order():
    """Cancelled events never fire; the rest keep (time, seq) order."""
    sim = Simulator()
    order = []
    events = [
        # Deliberate time collisions exercise the seq tie-break.
        sim.schedule((i % 37) * 100, order.append, i) for i in range(300)]
    for event in events[:200]:
        event.cancel()
    sim.run()
    assert order == sorted(range(200, 300),
                           key=lambda i: ((i % 37) * 100, i))


def test_cancel_after_pop_does_not_corrupt_count():
    """Cancelling an event whose entry already left the heap must not
    skew the dead-entry accounting below zero."""
    sim = Simulator()
    event = sim.schedule(5, lambda: None)
    sim.run()
    event.cancel()  # already fired; owner cleared on pop
    assert len(sim._heap) - sim._cancelled == 0
    sim.schedule(1, lambda: None)
    assert len(sim._heap) - sim._cancelled == 1


def test_event_budget_per_data_packet():
    """Neither the wired hop, the pacer nor the air costs a heap event
    per packet (or per transport block).

    What is left is one pacing wake-up per *train* plus the subframe
    tick, the 5 ms ACK batch and RTO re-arms — about 0.16 events per
    data packet on this packet-dominated config.  Transport blocks
    crossing the air as events again would read about 0.31, a pacer
    that wakes through the heap for every packet about 1.25, the link's
    ``_finish`` and the ingress ``receive`` events on top about 3.2.  A
    count, so it cannot flake on a busy box.
    """
    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs
    from repro.perf import PerfCounters

    scenario, specs = fingerprint_configs(1.0)["idle_3cc_pbe"]
    perf = PerfCounters()
    experiment = Experiment(scenario)
    experiment.sim.perf = experiment.network.perf = perf
    (handle,) = [experiment.add_flow(spec) for spec in specs]
    experiment.run()
    sent = handle.sender.sent_packets
    assert sent > 5_000
    assert perf.events_scheduled / sent <= 0.2


def _calls_during_run(config):
    """``sys.setprofile`` ``call`` + ``c_call`` events during a 1-second
    ``experiment.run()`` of a fingerprint config, after a 0.1-second run
    of it has done every lazy import and filled every module-level
    cache (so the figure is the same run alone or after other tests);
    returns ``(calls, experiment, handles)``."""
    import sys

    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs

    for duration_s in (0.1, 1.0):
        scenario, specs = fingerprint_configs(duration_s)[config]
        experiment = Experiment(scenario)
        handles = [experiment.add_flow(spec) for spec in specs]
        if duration_s < 1.0:
            experiment.run()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        experiment.run()
    finally:
        sys.setprofile(previous)
    return calls, experiment, handles


#: ``call`` + ``c_call`` profile events per sent packet on the
#: ``idle_3cc_pbe`` config at the parent of the last change to this
#: budget, by interpreter (the count depends on how an interpreter
#: reports comprehensions and builtins, so each needs its own figure).
PARENT_CALLS_PER_PACKET = {(3, 11): 45.85}


def test_call_budget_per_data_packet():
    """A packet's life — pace, link, wire, queue, transport block, UE,
    client, ACK, uplink batch, ACK clock, controller — costs at most
    0.95 of the Python and C calls it cost before the last change to
    it (DESIGN.md, "Only what is read later" and "Each fact once").

    Figures, calls over packets sent, CPython 3.11.7: 69.1 before the
    per-packet and per-grant objects were cut (Python 24.8 + C 44.3),
    54.6 after (20.6 + 34.0, bound 0.92 x 69.1); 47.9 before the
    per-packet state that nothing read or that another field held was
    cut (``hops``, ``recv_time_us``, ``acked_seq``, the ``(bits, t)``
    tuples and the send-order deque), 46.9 after (bound 0.99 x 47.9);
    45.85 before the per-packet ``CongestionControl.on_send`` call,
    the ``Packet.meta`` dicts and ``TransportBlock.touches`` went,
    42.76 after; the bound is 0.95 x 45.85 = 43.56, which one re-added
    call per packet (43.76) exceeds.  A count, so it cannot flake on a
    busy box; an
    interpreter with no recorded parent figure skips (3.10 and 3.12
    were not available with numpy where this was written).
    """
    import sys

    import pytest

    parent = PARENT_CALLS_PER_PACKET.get(sys.version_info[:2])
    if parent is None:
        pytest.skip("no parent calls-per-packet figure recorded for "
                    f"Python {sys.version_info[0]}.{sys.version_info[1]}")
    calls, _, (handle,) = _calls_during_run("idle_3cc_pbe")
    sent = handle.sender.sent_packets
    assert sent > 5_000
    assert calls / sent <= 0.95 * parent


#: ``call`` + ``c_call`` profile events per subframe tick on the
#: ``busy_2cc_pbe`` config at the parent of the last change to this
#: budget, by interpreter (see PARENT_CALLS_PER_PACKET).
PARENT_CALLS_PER_TICK = {(3, 11): 443.0}


def test_call_budget_per_tick():
    """A subframe's life — channel refresh, exogenous injection, HARQ,
    control traffic, scheduler, transport blocks, DCI, monitor ingest,
    CA, and the air landing with its capacity reports — costs at most
    0.96 of the Python and C calls it cost before the last change to
    it (DESIGN.md, "Only what is read later" and "Each fact once").

    Figures, calls over ``network.subframe``, CPython 3.11.7: 578.1
    before the per-grant, per-record and per-report work was cut
    (Python 236.6 + C 341.5), 530.5 after (206.8 + 323.7, bound
    0.93 x 578.1); 474.0 before the per-packet state that nothing read
    was cut, 466.3 after (bound 0.99 x 474.0); 461.9 before the
    per-grant objects nothing read later were cut (a HARQ state per
    block, a demand record per backlogged user, a window record per
    subframe, a CA state per observation, the feedback's dataclass
    ``__init__``, the per-block ``dict.get`` and ``min`` calls, the
    scheduler's per-round list comprehensions, the injection call of
    an idle background user), 443.2 after (bound 0.97 x 461.9); 443.0
    before the per-packet ``on_send`` call, ``meta`` dicts and
    ``touches`` appends went, 419.5 after; the bound is 0.96 x 443.0 =
    425.3, which one re-added call per packet (427.0) exceeds.  A
    count, so it cannot flake on a busy box; an interpreter with no
    recorded parent figure skips.
    """
    import sys

    import pytest

    parent = PARENT_CALLS_PER_TICK.get(sys.version_info[:2])
    if parent is None:
        pytest.skip("no parent calls-per-tick figure recorded for "
                    f"Python {sys.version_info[0]}.{sys.version_info[1]}")
    calls, experiment, _ = _calls_during_run("busy_2cc_pbe")
    ticks = experiment.network.subframe
    assert ticks > 900
    assert calls / ticks <= 0.96 * parent


def test_harq_state_is_built_only_for_a_failed_block():
    """A transport block gets a ``_HarqState`` on its first failure
    only: on the busy two-carrier cell (1 s) the states built are
    exactly the blocks that ever waited for a retransmission — 62,
    against the ~2 100 blocks sent (one state each before)."""
    import pytest

    from repro.cell import basestation
    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs

    scenario, specs = fingerprint_configs(1.0)["busy_2cc_pbe"]
    experiment = Experiment(scenario)
    for spec in specs:
        experiment.add_flow(spec)
    network = experiment.network
    built = 0
    harq_state = basestation._HarqState

    def counting_state(*args):
        nonlocal built
        built += 1
        return harq_state(*args)

    # A block waits in ``_retx`` at least RETX_DELAY_SUBFRAMES - 1 tick
    # boundaries, so looking after every cell's tick sees each one.
    waited: dict[int, object] = {}
    tick_cell = network._tick_cell

    def watching_tick_cell(*args):
        tick_cell(*args)
        for due in network._retx.values():
            for harq in due:
                waited[id(harq.tb)] = harq.tb

    network._tick_cell = watching_tick_cell
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basestation, "_HarqState", counting_state)
        experiment.run()
    assert network.subframe > 900
    assert built == len(waited) > 10


#: ``Sender._pace`` wake-ups per sent packet on the
#: ``mixed_1cc_five_schemes`` config (1 s) at the commit before "a
#: sender wakes only to send", by numpy version (the run's RNG streams,
#: and so its packets, are those of the numpy the goldens pin).
PARENT_WAKE_UPS_PER_PACKET = {"2.4.6": 1.2973}


def test_wake_up_budget_per_data_packet():
    """A sender wakes only when it could send: CUBIC, Copa and BBR
    answer until the next callback, so blocked on a window they queue no
    wake-up, and their answers ride across wake-ups.  At most 0.9 of the
    wake-ups per packet the five-scheme cell cost before.

    Figures, CPython 3.11.7 + numpy 2.4.6: 7 846 wake-ups for 6 048
    packets (1.2973) before, 6 836 (1.1303) after — CUBIC 2 313 →
    1 898, Copa 1 320 → 879, BBR 1 159 → 1 037; PBE and Verus (finite
    and default horizons) unchanged but for the trains.  A count, so it
    cannot flake; another numpy skips."""
    import numpy as np
    import pytest

    from repro.baselines.base import Sender
    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs

    parent = PARENT_WAKE_UPS_PER_PACKET.get(np.__version__)
    if parent is None:
        pytest.skip(f"no parent wake-up figure recorded for numpy "
                    f"{np.__version__}")
    pace = Sender._pace
    wake_ups = 0

    def counting(self):
        nonlocal wake_ups
        wake_ups += 1
        pace(self)

    scenario, specs = fingerprint_configs(1.0)["mixed_1cc_five_schemes"]
    experiment = Experiment(scenario)
    handles = [experiment.add_flow(spec) for spec in specs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sender, "_pace", counting)
        experiment.run()
    sent = sum(handle.sender.sent_packets for handle in handles)
    assert sent > 5_000
    assert wake_ups / sent <= 0.9 * parent


def test_a_window_blocked_callback_bound_sender_holds_no_wake_up():
    """Stopped every millisecond of the five-scheme cell: whenever the
    CUBIC, Copa or BBR sender is blocked on its window, nothing of its
    is queued — an ACK, a loss or a timeout re-arms it."""
    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs

    scenario, specs = fingerprint_configs(1.0)["mixed_1cc_five_schemes"]
    experiment = Experiment(scenario)
    handles = [experiment.add_flow(spec) for spec in specs]
    watched = [h for h in handles if h.spec.scheme in ("bbr", "cubic", "copa")]
    blocked = dict.fromkeys((h.spec.scheme for h in watched), 0)
    sim = experiment.sim
    for ms in range(1, 1_000):
        sim.run(until_us=ms * 1_000)
        for handle in watched:
            sender = handle.sender
            cwnd = handle.cc.cwnd_bits(sim.now)
            if (sender.running and not sender._pacing_active
                    and sender.inflight_bits + sender.mss_bits > cwnd):
                assert sender._pace_event is None, handle.spec.scheme
                blocked[handle.spec.scheme] += 1
    assert min(blocked.values()) >= 10, blocked


def test_monitor_callback_does_not_drain_the_wire():
    """Every tick drains the wire exactly once, at its top.

    The PBE monitor's rate hint runs inside a cell's monitor callback,
    between one cell's grants and the next.  It used to read the user
    through ``network.user()``, which drains the wire: a second O(ingress)
    scan every subframe, at a point where queues could change mid-tick.
    """
    from repro.harness import Experiment
    from repro.harness.fingerprint import fingerprint_configs

    scenario, specs = fingerprint_configs(1.0)["busy_2cc_pbe"]
    experiment = Experiment(scenario)
    for spec in specs:
        experiment.add_flow(spec)
    network = experiment.network
    drain, tick = network._drain_wire, network._tick
    drains = 0
    per_tick = []

    def counting_drain():
        nonlocal drains
        drains += 1
        drain()

    def counting_tick():
        before = drains
        tick()
        per_tick.append(drains - before)

    network._drain_wire = counting_drain
    network._tick = counting_tick
    experiment.run()
    # The Experiment scheduled the first tick before the patch.
    assert len(per_tick) == network.subframe - 1 > 900
    assert set(per_tick) == {1}


# ----------------------------------------------------------------------
# Rolling-sum equivalence: CA manager
# ----------------------------------------------------------------------
def test_ca_rolling_sums_match_history_rescan():
    policy = CaPolicy(window=16, cooldown=5, deactivation_hold=8)
    manager = CarrierAggregationManager(policy)
    agg = AggregationState(configured=[0, 1])
    rng = random.Random(7)
    for subframe in range(400):
        manager.observe(subframe, 42, agg,
                        used_prbs=rng.randint(0, 50),
                        active_total_prbs=50 * agg.active_count,
                        backlogged=rng.random() < 0.6)
        state = manager.state_for(42)
        assert state.used_sum == sum(h[0] for h in state.history)
        assert state.total_sum == sum(h[1] for h in state.history)
        assert state.backlog_frames == sum(
            1 for h in state.history if h[2])


# ----------------------------------------------------------------------
# Rolling-sum equivalence: capacity estimator
# ----------------------------------------------------------------------
class _NaiveEstimator:
    """The pre-PR deque-and-rescan estimator, kept as the oracle."""

    def __init__(self, cap):
        self.samples = deque(maxlen=cap)

    def update(self, subframe, own_prbs, idle_prbs, own_rate, ber):
        self.samples.append((subframe, own_prbs, idle_prbs, own_rate,
                             ber))

    def estimate(self, window_subframes):
        window = list(self.samples)[-window_subframes:]
        n = len(window)
        mean_pa = sum(s[1] for s in window) / n
        mean_idle = sum(s[2] for s in window) / n
        mean_rate = sum(s[3] for s in window) / n
        mean_ber = sum(s[4] for s in window) / n
        span = max(1, window[-1][0] - window[0][0] + 1)
        coverage = min(1.0, n / span)
        return (mean_pa, mean_idle, mean_rate, mean_ber, coverage)


def _feed(est, naive, subframe, rng):
    own = rng.randint(0, 40)
    other = rng.randint(0, 50 - min(own, 50))
    record = SubframeRecord(subframe, 0, 100)
    if own:
        record.messages.append(DciMessage(
            subframe, 0, 1, own, 15, 2, tbs_bits=own * rng.randint(
                200, 900)))
    if other:
        record.messages.append(DciMessage(
            subframe, 0, 77, other, 10, 1, tbs_bits=other * 300))
    ber = rng.choice([0.0, 1e-6, 3.7e-5, 1.2e-4])
    est.update(record, own_rate_hint=rng.randint(100, 1_000),
               ber_hint=ber)
    sample = est.samples()[-1]
    naive.update(sample.subframe, sample.own_prbs, sample.idle_prbs,
                 sample.own_rate, sample.ber)


def test_estimator_bitwise_equal_to_naive_rescan():
    """Every figure the ring-buffer estimator returns must equal the
    naive windowed re-scan *bit for bit* (floats compared with ==)."""
    rng = random.Random(123)
    est = CellCapacityEstimator(cell_id=0, total_prbs=100, own_rnti=1)
    naive = _NaiveEstimator(CellCapacityEstimator.MAX_WINDOW)
    subframe = 0
    for step in range(1_200):  # 3x MAX_WINDOW: exercises overflow
        subframe += 1 if rng.random() < 0.8 else rng.randint(2, 30)
        _feed(est, naive, subframe, rng)
        for window in (1, 2, 7, 40, 399, 400):
            got = est.estimate(window)
            pa, idle, rate, ber, cov = naive.estimate(window)
            assert got.idle == idle
            assert got.mean_ber == ber
            assert got.coverage == cov
            # physical/fair recombine the means with the user count;
            # verify the Pa and rate terms via Eqn. 3 and the fair share.
            assert got.physical_capacity == \
                rate * (pa + idle / got.users)
            assert got.fair_share == rate * 100 / got.users


class _CountingMessages(list):
    """A record's message list that counts how often it is scanned."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_estimator_update_scans_a_records_messages_once():
    """One fold, one scan: the allocated sum, the ``{rnti: prbs}`` map
    for the user filter, own PRBs and own rate come out of a single
    pass over the messages (it used to take three) — and equal what the
    record's own one-question-per-scan helpers and a filter fed the
    record directly say."""
    rng = random.Random(21)
    est = CellCapacityEstimator(cell_id=0, total_prbs=100, own_rnti=1)
    users = ActiveUserFilter(est.users.window_subframes)
    for subframe in range(120):
        messages = _CountingMessages()
        budget = 100
        for _ in range(rng.randrange(0, 6)):
            prbs = min(rng.choice([0, 3, 10, 25]), budget)
            budget -= prbs
            messages.append(DciMessage(
                subframe, 0, rng.choice([1, 1, 2, 17]), prbs, 12, 2,
                tbs_bits=prbs * rng.randint(200, 900)))
        record = SubframeRecord(subframe, 0, 100, messages)
        est.update(record, own_rate_hint=555, ber_hint=1e-6)
        assert messages.scans == 1
        users.update(record)
        sample = est.samples()[-1]
        assert sample.own_prbs == prbs_for(record, 1)
        assert sample.idle_prbs == record.idle_prbs
        own = [m for m in messages if m.rnti == 1 and m.n_prbs > 0]
        assert sample.own_rate == (
            max(1, own[-1].tbs_bits // own[-1].n_prbs) if own else 555)
        assert est.users._activity == users._activity
        assert est.last_own_grant_subframe == max(
            (s.subframe for s in est.samples() if s.own_prbs), default=-1)


def test_estimator_memo_invalidated_by_update():
    est = CellCapacityEstimator(cell_id=0, total_prbs=100, own_rnti=1)
    rng = random.Random(5)
    naive = _NaiveEstimator(CellCapacityEstimator.MAX_WINDOW)
    _feed(est, naive, 1, rng)
    first = est.estimate(40)
    again = est.estimate(40)
    assert again == first and again is not first  # fresh every call
    _feed(est, naive, 2, rng)
    second = est.estimate(40)
    pa, idle, rate, ber, cov = naive.estimate(40)
    assert second.physical_capacity == rate * (pa + idle / second.users)
    assert second.mean_ber == ber


def test_estimator_samples_roundtrip():
    """samples() reconstructs the retained window from the rings."""
    est = CellCapacityEstimator(cell_id=0, total_prbs=50, own_rnti=3)
    for sf in range(450):
        record = SubframeRecord(sf, 0, 50)
        record.messages.append(DciMessage(
            sf, 0, 3, 1 + sf % 5, 10, 1, tbs_bits=(1 + sf % 5) * 100))
        est.update(record, own_rate_hint=100, ber_hint=float(sf))
    samples = est.samples()
    assert len(samples) == CellCapacityEstimator.MAX_WINDOW
    assert samples[0].subframe == 50 and samples[-1].subframe == 449
    assert samples[-1].own_prbs == 1 + 449 % 5
    assert samples[-1].ber == 449.0


# ----------------------------------------------------------------------
# Tick rosters: rebuilds are counted, not timed
# ----------------------------------------------------------------------
def _sparse_network(n_cells=240):
    from repro.cell.basestation import CellularNetwork
    from repro.phy.carrier import CarrierConfig

    sim = Simulator()
    network = CellularNetwork(
        sim, [CarrierConfig(cell_id=c) for c in range(n_cells)],
        control_arrivals_per_subframe=0.05, seed=3)
    calls = {"build": 0, "cell": 0}
    build, tick_cell = network._build_rosters, network._tick_cell

    def counting_build(subframe):
        calls["build"] += 1
        return build(subframe)

    def counting_tick_cell(*args):
        calls["cell"] += 1
        tick_cell(*args)

    network._build_rosters = counting_build
    network._tick_cell = counting_tick_cell
    return sim, network, calls


def test_sparse_network_builds_rosters_once_and_ticks_one_cell():
    """240 carriers, one attached flow, 1 000 ticks: one roster build
    and one ``_tick_cell`` per tick — the per-tick cost does not grow
    with the number of configured carriers."""
    from repro.phy.channel import StaticChannel

    sim, network, calls = _sparse_network()
    network.add_exogenous_user(1, [7], StaticChannel(20.0),
                               ScheduledDemand([(0.0, 20e6)]))
    network.start()
    sim.run(until_us=999_000)
    assert network.subframe == 1_000
    assert calls == {"build": 1, "cell": 1_000}
    assert len(network._dormant_since) == 239


def test_attach_burst_costs_one_roster_rebuild():
    from repro.phy.channel import StaticChannel

    sim, network, calls = _sparse_network()
    network.start()
    sim.run(until_us=9_500)
    assert calls == {"build": 1, "cell": 0}
    for i in range(20):
        network.add_exogenous_user(100 + i, [10 * i], StaticChannel(15.0),
                                   ScheduledDemand([(0.0, 20e6)]))
    sim.run(until_us=19_500)
    assert calls == {"build": 2, "cell": 20 * 10}


def test_roster_rebuilds_stop_once_departed_users_harq_drains():
    """A cell kept live only by a departed user's pending HARQ is
    re-examined every tick, and only until that drains."""
    from unittest import mock

    from repro.cell import basestation
    from repro.phy.channel import StaticChannel
    from repro.phy.harq import MAX_RETRANSMISSIONS, RETX_DELAY_SUBFRAMES

    bound = MAX_RETRANSMISSIONS * (RETX_DELAY_SUBFRAMES + 1) + 1
    sim, network, calls = _sparse_network()
    network.add_exogenous_user(1, [7], StaticChannel(20.0),
                               ScheduledDemand([(0.0, 20e6)]))
    network.start()
    with mock.patch.object(basestation, "block_error_rate",
                           lambda ber, bits: 1.0):
        sim.run(until_us=4_500)
    assert network._cell_retx_count[7] > 0
    network.remove_user(1)
    before = calls["build"]
    sim.run(until_us=4_500 + 1_000 * (bound + 20))
    assert 2 <= calls["build"] - before <= bound
    assert network._cell_retx_count[7] == 0 and not network._retx
    assert network._live_cells == []
    assert len(network._dormant_since) == 240
