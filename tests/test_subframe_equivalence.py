"""Exact-equivalence properties for the per-subframe rewrites.

DESIGN.md, "A subframe's life", cuts work out of the subframe tick and
the monitor with rewrites that are exact by construction.  Each test
here holds one rewrite against the form it replaced and fails if the
result drifts by one ulp or one element:

* the capacity estimator's BER window fold against the chronological
  ``+=`` loop, on rings that wrap, for every window 1..MAX_WINDOW;
* ``ActiveUserFilter.data_user_count`` against the size of the
  ``data_users`` set, with averages straddling the ``Pa > 4`` cut;
* ``allocate_prbs`` against its sort-key rotation order, grants dict
  insertion order included;
* ``ReorderingBuffer.insert``'s in-order fast path against the
  ``_drain`` path;
* the engine's unchecked ``DciMessage`` construction against the
  checked constructor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import basestation
from repro.cell.basestation import CellularNetwork
from repro.cell.scheduler import (
    POLICIES,
    DemandEntry,
    ProportionalFairState,
    allocate_prbs,
)
from repro.monitor.capacity import CellCapacityEstimator
from repro.monitor.filters import ActiveUserFilter
from repro.net.sim import Simulator
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel
from repro.phy.dci import DciMessage, SubframeRecord
from repro.phy.harq import ReorderingBuffer
from repro.traces.workload import CbrDemand

# ----------------------------------------------------------------------
# Capacity estimator: the BER window fold
# ----------------------------------------------------------------------
#: BERs spanning the model's clamp range and beyond, so the order of the
#: additions decides the last bits of the sum.
_BERS = st.one_of(
    st.floats(min_value=1e-8, max_value=1e-4),
    st.sampled_from([0.0, 1e-8, 1e-4, 3.3e-6, 0.1, 1.0]))


@settings(max_examples=30, deadline=None)
@given(bers=st.lists(_BERS, min_size=1, max_size=40),
       count=st.integers(min_value=1, max_value=3 * 400 + 7))
def test_ber_fold_equals_the_chronological_loop(bers, count):
    cap = CellCapacityEstimator.MAX_WINDOW
    est = CellCapacityEstimator(cell_id=0, total_prbs=100, own_rnti=1)
    history = []
    for k in range(count):
        ber = bers[k % len(bers)] * (1 + k % 7)
        est.update(SubframeRecord(k, 0, 100), own_rate_hint=500,
                   ber_hint=ber)
        history.append(ber)
    for window in range(1, cap + 1):
        n = min(window, count, cap)
        total = 0.0
        for ber in history[count - n:]:
            total += ber
        assert est.estimate(window).mean_ber == total / n, window


# ----------------------------------------------------------------------
# Active-user filter: counting without the set
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(frames=st.lists(
           st.dictionaries(st.integers(min_value=1, max_value=8),
                           st.integers(min_value=1, max_value=9),
                           max_size=6),
           min_size=1, max_size=60),
       window=st.integers(min_value=1, max_value=40),
       include=st.sampled_from([None, 1, 5, 99]))
def test_data_user_count_equals_the_set_size(frames, window, include):
    users = ActiveUserFilter(window)
    for subframe, allocations in enumerate(frames):
        users.update_allocations(subframe, dict(allocations))
        assert users.data_user_count(include) == max(
            1, len(users.data_users(include)))


def test_data_user_count_at_the_average_cut():
    """Averages of exactly 5, just under and just over: only ≥ 5 counts."""
    users = ActiveUserFilter(10)
    per_frame = [{1: 5, 2: 4, 3: 6, 4: 5},
                 {1: 5, 2: 6, 3: 4, 4: 4}]
    for subframe, allocations in enumerate(per_frame):
        users.update_allocations(subframe, allocations)
    # averages: rnti 1 = 5.0, 2 = 5.0, 3 = 5.0, 4 = 4.5
    assert users.data_users() == {1, 2, 3}
    assert users.data_user_count() == 3
    assert users.data_user_count(4) == 4
    assert users.data_user_count(1) == 3


# ----------------------------------------------------------------------
# Scheduler: the rotation order without the sort
# ----------------------------------------------------------------------
def _sorted_order_allocate(available_prbs, demands, rotation, policy,
                           pf_state):
    """``allocate_prbs`` as it stood with ``sorted(..., key=...)`` for
    the rotation order and ``DemandEntry.demand_prbs`` per entry."""
    grants = {}
    pending, demand_prbs = [], []
    for d in demands:
        need = d.demand_prbs
        if need > 0:
            pending.append(d)
            demand_prbs.append(need)
    remaining = available_prbs
    if not pending or remaining == 0:
        return grants
    if len(pending) == 1:
        grants[pending[0].rnti] = min(demand_prbs[0], remaining)
        return grants
    if policy == "equal":
        weights = None
    elif policy == "proportional_fair":
        weights = [max(1e-9, pf_state.weight(d)) for d in pending]
    else:
        weights = [1.0 / max(1, d.bits_per_prb) for d in pending]
    active = list(range(len(pending)))
    while active and remaining > 0:
        if weights is None:
            total_weight = float(len(active))
            satisfied = [i for i in active
                         if demand_prbs[i]
                         <= remaining * 1.0 / total_weight]
        else:
            total_weight = sum(weights[i] for i in active)
            satisfied = [i for i in active
                         if demand_prbs[i]
                         <= remaining * weights[i] / total_weight]
        if not satisfied:
            break
        for i in satisfied:
            grants[pending[i].rnti] = demand_prbs[i]
            remaining -= demand_prbs[i]
        done = set(satisfied)
        active = [i for i in active if i not in done]
    granted = [0] * len(pending)
    while active and remaining > 0:
        n = len(active)
        if weights is None:
            total_weight = float(n)
            shares = [int(remaining * 1.0 / total_weight)
                      for _ in active]
        else:
            total_weight = sum(weights[i] for i in active)
            shares = [int(remaining * weights[i] / total_weight)
                      for i in active]
        leftover = remaining - sum(shares)
        order = sorted(range(n), key=lambda k: (k + rotation) % n)
        progress = 0
        for rank, k in enumerate(order):
            i = active[k]
            extra = 1 if rank < leftover else 0
            room = demand_prbs[i] - granted[i]
            grant = min(shares[k] + extra, room)
            if grant > 0:
                granted[i] += grant
                grants[pending[i].rnti] = granted[i]
                remaining -= grant
                progress += grant
        if progress == 0:
            break
        active = [i for i in active if granted[i] < demand_prbs[i]]
    return grants


_DEMANDS = st.lists(
    st.tuples(st.sampled_from([0, 1, 700, 5_000, 40_000, 10**7]),
              st.integers(min_value=0, max_value=1_500)),
    min_size=0, max_size=8)


@settings(max_examples=150, deadline=None)
@given(raw=_DEMANDS, available=st.integers(min_value=0, max_value=120),
       policy=st.sampled_from(POLICIES),
       served=st.dictionaries(st.integers(min_value=0, max_value=7),
                              st.integers(min_value=0, max_value=10**5),
                              max_size=8))
def test_allocate_prbs_equals_the_sort_key_order(raw, available, policy,
                                                 served):
    demands = [DemandEntry(rnti, bits, rate)
               for rnti, (bits, rate) in enumerate(raw)]
    pf = ProportionalFairState()
    pf.record(served, set(served))
    n = max(1, len(demands))
    for rotation in range(2 * n + 1):
        got = allocate_prbs(available, demands, rotation, policy, pf)
        want = _sorted_order_allocate(available, demands, rotation,
                                      policy, pf)
        assert list(got.items()) == list(want.items()), rotation


# ----------------------------------------------------------------------
# HARQ reordering: the in-order fast path
# ----------------------------------------------------------------------
class _DrainOnlyBuffer(ReorderingBuffer):
    """``ReorderingBuffer.insert`` without the in-order fast path."""

    def insert(self, seq, payload):
        if seq < self._expected or seq in self._held:
            return []
        self._held[seq] = payload
        released = self._drain()
        self.max_held = max(self.max_held, len(self._held))
        return released


_OPS = st.lists(st.tuples(st.sampled_from(["insert", "insert", "abandon"]),
                          st.integers(min_value=0, max_value=12)),
                max_size=60)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_reorder_fast_path_equals_the_drain_path(ops):
    fast, slow = ReorderingBuffer(), _DrainOnlyBuffer()
    expected = 0
    for op, seq in ops:
        if op == "insert" and seq % 3 == 0:
            seq = expected  # in order, most of the time in practice
        if op == "insert":
            assert fast.insert(seq, f"tb{seq}") == slow.insert(
                seq, f"tb{seq}")
        else:
            assert fast.abandon(seq) == slow.abandon(seq)
        assert (fast._expected, fast._held, fast._abandoned,
                fast.max_held) == (slow._expected, slow._held,
                                   slow._abandoned, slow.max_held)
        expected = fast._expected


# ----------------------------------------------------------------------
# DCI messages: unchecked construction
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(fields=st.tuples(
    st.integers(min_value=0, max_value=10**6), st.integers(0, 300),
    st.integers(0, 65_535), st.integers(0, 110), st.integers(0, 28),
    st.integers(1, 4), st.integers(0, 10**6), st.booleans(),
    st.booleans()))
def test_engine_built_dci_equals_the_checked_constructor(fields):
    built = basestation._new_dci(DciMessage, fields)
    checked = DciMessage(*fields)
    assert type(built) is DciMessage
    assert built == checked and hash(built) == hash(checked)
    assert built._asdict() == checked._asdict()
    assert repr(built) == repr(checked)


def test_engine_emits_dci_the_checked_constructor_accepts():
    """Every message a busy, HARQ-failing cell publishes rebuilds
    through the range-checked constructor to an equal message."""
    sim = Simulator()
    network = CellularNetwork(
        sim, [CarrierConfig(cell_id=0), CarrierConfig(cell_id=1)],
        control_arrivals_per_subframe=0.3, seed=9)
    records = []
    for cell_id in (0, 1):
        network.attach_monitor(cell_id, records.append)
    for rnti in range(1, 5):
        network.add_exogenous_user(rnti, [rnti % 2], StaticChannel(-1.0),
                                   CbrDemand(60e6))
    network.start()
    sim.run(until_us=300_000)
    messages = [m for record in records for m in record.messages]
    assert any(m.is_control for m in messages)
    assert any(not m.new_data for m in messages)  # retransmissions
    for message in messages:
        assert type(message) is DciMessage
        assert DciMessage(*message) == message
