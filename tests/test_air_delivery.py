"""The tick-landed air interface against the event-per-block one it replaced.

``tests/reference_air.py`` is the old delivery verbatim: one
``receive_tb``/``abandon_tb`` heap event per transport block and one
receiver call per released block.  The base station now keeps a
subframe's blocks in a list and lands them at the top of the next tick,
one burst per run of consecutive same-UE blocks; the client stamps a
burst per report instead of per packet.  Both must be unobservable:

* the same ``(arrival instant, flow, seq)`` stream and the same UE
  counters, with any number of UEs and carriers, HARQ failures up to
  abandonment, handovers and departures mid-run, and ``run(until_us)``
  cut anywhere;
* a same-instant foreign event queued before (after) the deliveries
  still runs before (after) them;
* ``PbeClient.receive_block(burst)`` leaves the same ACKs — equal
  feedback *values* on every one — and the same observable state as
  the per-packet body it replaced (``tests/reference_transport.py``),
  whatever changes inside the burst.
"""

from contextlib import ExitStack
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cell import basestation
from repro.cell.basestation import CellularNetwork
from repro.cell.ca_manager import CaPolicy
from repro.core.client import INTERNET, WIRELESS, PbeClient
from repro.monitor.pbe import PbeMonitor
from repro.net.flow import FlowStats
from repro.net.link import PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS, US_PER_S
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel
from repro.phy.dci import DciMessage, SubframeRecord

from . import reference_air
from .reference_air import ReferenceCellularNetwork
from .reference_transport import ReferencePbeClient

END_US = 150_000
#: Quick carrier activation — also for users sharing a cell three ways —
#: so multi-carrier users really aggregate.
FAST_CA = dict(window=4, cooldown=4, deactivation_hold=8,
               activation_fraction=0.3)


# ----------------------------------------------------------------------
# Base station + UE: same stream, same counters
# ----------------------------------------------------------------------
def _drive(network_cls, case):
    """Run one drawn case; returns ``(stream, counters, bursts, draws)``,
    ``draws`` the transport-block error uniforms used (one
    ``block_error_rate`` call each)."""
    sim = Simulator()
    carriers = list(range(case["carriers"]))
    net = network_cls(sim, [CarrierConfig(c, 5.0) for c in carriers],
                      ca_policy=CaPolicy(**FAST_CA), seed=case["seed"])
    stream, bursts, ues = [], [], {}

    def on_block(packets):
        bursts.append(len(packets))
        for packet in packets:
            stream.append((sim.now, packet.flow_id, packet.seq))

    def offer(rnti, gap_us, seq=0):
        net.ingress(rnti).receive(
            Packet(rnti, seq, MSS_BITS, sent_time_us=sim.now))
        if sim.now < END_US - 20_000:
            sim.schedule(gap_us, offer, rnti, gap_us, seq + 1)

    def act(kind, rnti, cells):
        if rnti not in net._users:
            return
        if kind == "remove":
            net.remove_user(rnti)
        else:
            net.handover(rnti, cells, interruption_subframes=5)

    for rnti, gap_us in enumerate(case["gaps_us"], start=1):
        ues[rnti] = net.add_user(rnti, carriers, StaticChannel(20.0),
                                 on_packet_block=on_block)
        sim.schedule(0, offer, rnti, gap_us)
    for time_us, kind, rnti, cells in case["actions"]:
        sim.schedule_at(time_us, act, kind, rnti, cells)
    net.start()

    draws = 0

    def tbler(ber, bits):
        nonlocal draws
        draws += 1
        return case["tbler"]

    with ExitStack() as stack:
        for module in (basestation, reference_air):
            stack.enter_context(
                mock.patch.object(module, "block_error_rate", tbler))
        for cut_us in sorted(case["cuts_us"]):
            sim.run(until_us=cut_us)
        sim.run(until_us=END_US)
    counters = {
        rnti: (ue.delivered_tbs, ue.abandoned_tbs, ue.delivered_packets,
               ue.lost_packets, len(ue._reorder._held), ue._reorder.max_held)
        for rnti, ue in ues.items()}
    return stream, counters, bursts, draws


@st.composite
def _cases(draw):
    n_ues = draw(st.integers(1, 3))
    carriers = draw(st.integers(1, 3))
    instants = st.one_of(
        st.integers(1_000, END_US - 1),
        st.integers(1, END_US // 1_000 - 1).map(lambda sf: sf * 1_000))
    cells = st.lists(st.integers(0, carriers - 1), min_size=1,
                     max_size=carriers, unique=True)
    actions = st.lists(
        st.tuples(instants, st.sampled_from(["handover", "remove"]),
                  st.integers(1, n_ues), cells), max_size=3)
    return {
        "carriers": carriers,
        "seed": draw(st.integers(0, 2**16)),
        # 150 µs ≈ 80 Mbit/s overloads one 5 MHz carrier several times
        # over (aggregation, backlog); 2 ms trickles.
        "gaps_us": draw(st.lists(st.sampled_from([150, 400, 2_000]),
                                 min_size=n_ues, max_size=n_ues)),
        # One probability for every attempt: abandonment at tbler ** 4.
        "tbler": draw(st.sampled_from([0.0, 0.1, 0.5, 0.8])),
        "actions": draw(actions),
        "cuts_us": draw(st.lists(st.integers(0, END_US), max_size=6)),
    }


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_landed_air_matches_event_per_block_delivery(case):
    reference = _drive(ReferenceCellularNetwork, case)
    landed = _drive(CellularNetwork, case)
    assert landed[0] == reference[0]           # the packet stream
    assert landed[1] == reference[1]           # the UE counters
    assert landed[3] == reference[3]           # the error uniforms
    # Same packets in fewer, larger bursts — never more.
    assert sum(landed[2]) == sum(reference[2])
    assert len(landed[2]) <= len(reference[2])


def test_the_differential_reaches_abandonment_and_aggregation():
    """The drawn space is not vacuous: a lossy 3-carrier case abandons
    blocks, parks others in the reordering buffer and merges bursts —
    and, across a handover, uses more than two of the engine's blocks
    of error uniforms, each value of which the scalar oracle draws by
    itself."""
    case = {"carriers": 3, "seed": 7, "gaps_us": [150], "tbler": 0.8,
            "actions": [(60_000, "handover", 1, [1])], "cuts_us": []}
    reference = _drive(ReferenceCellularNetwork, case)
    landed = _drive(CellularNetwork, case)
    assert landed[:2] == reference[:2]
    assert landed[3] == reference[3] > 2 * basestation.TB_UNIFORM_BLOCK
    delivered, abandoned, _, lost, _, max_held = landed[1][1]
    assert delivered > 50 and abandoned > 5 and lost > 0 and max_held > 3
    assert len(landed[2]) < len(reference[2])


def _one_user_network(network_cls, carriers=1):
    sim = Simulator()
    net = network_cls(sim, [CarrierConfig(c, 20.0)
                            for c in range(carriers)],
                      ca_policy=CaPolicy(**FAST_CA))
    return sim, net


def _rule_log(network_cls):
    sim, net = _one_user_network(network_cls)
    log = []
    net.add_user(1, [0], StaticChannel(20.0),
                 on_packet_block=lambda packets: log.extend(
                     "packet" for _ in packets))
    # Queued at set-up for the landing instant: ahead of the blocks
    # tick 4 puts on the air (and of tick 5 itself).
    sim.schedule_at(5_000, log.append, "before")
    # Queued for the same instant from inside subframe 4, after tick 4
    # ran: behind them.
    sim.schedule_at(4_500, sim.schedule_at, 5_000, log.append, "after")
    for seq in range(3):
        sim.schedule_at(3_500, net.ingress(1).receive,
                        Packet(1, seq, MSS_BITS, sent_time_us=3_500))
    net.start()
    sim.run(until_us=4_999)
    assert log == []
    sim.run(until_us=5_000)
    return log


def test_same_instant_foreign_events_keep_their_side():
    """Tick *n*'s deliveries run at the top of tick *n+1*: an event
    queued for that instant earlier runs before them, a later one after."""
    landed = _rule_log(CellularNetwork)
    assert landed == ["before", "packet", "packet", "after"]  # 3rd spills
    assert _rule_log(ReferenceCellularNetwork) == landed


def test_only_consecutive_blocks_of_one_ue_merge():
    """Air entries follow ``_transmit`` order; a UE's blocks on two
    carriers share an entry only when nothing of another UE's lies
    between them."""
    def air_after_overload(n_ues):
        sim, net = _one_user_network(CellularNetwork, carriers=2)
        for rnti in range(1, n_ues + 1):
            net.add_user(rnti, [0, 1], StaticChannel(20.0))
            for seq in range(2_000):
                net.enqueue(rnti, Packet(rnti, seq, MSS_BITS))
        net.start()
        with mock.patch.object(basestation, "block_error_rate",
                               lambda ber, bits: 0.0):
            sim.run(until_us=20_000)  # both carriers active by now
        return [(ue.rnti, [tb.cell_id for tb, decoded in blocks])
                for ue, blocks in net._air]

    assert air_after_overload(1) == [(1, [0, 1])]
    shared = air_after_overload(2)
    assert sorted(shared) == [(1, [0]), (1, [1]), (2, [0]), (2, [1])]
    assert [cells for _, cells in shared] == [[0], [0], [1], [1]]


def test_one_client_pass_per_subframe_for_an_aggregated_user():
    sim, net = _one_user_network(CellularNetwork, carriers=3)
    calls = []
    ue = net.add_user(1, [0, 1, 2], StaticChannel(20.0),
                      on_packet_block=lambda packets: calls.append(sim.now))
    for seq in range(3_000):
        net.enqueue(1, Packet(1, seq, MSS_BITS))
    net.start()
    sim.run(until_us=60_000)
    assert net._users[1].agg.active_count == 3
    assert ue.delivered_tbs > len(calls)       # several blocks a tick
    assert len(calls) == len(set(calls))       # one burst per instant


# ----------------------------------------------------------------------
# Client: receive_block(burst) against the per-packet body it replaced
# ----------------------------------------------------------------------
OWN = 100


def _receive_rate_bps(client, now_us, window_us):
    """The oracle's windowed receive rate, read off either client."""
    ReferencePbeClient._prune_recent(client, now_us - window_us)
    return client._recent_bits * US_PER_S / window_us


class _Twins:
    """Two clients on one clock, fed alike: the engine's takes bursts
    whole (``receive_block``), the oracle packet by packet."""

    def __init__(self, rate=1000):
        self.sim = Simulator()
        #: Bits per PRB, hinted and decoded: sets Ct, hence Npkt.
        self.rate = rate
        self.block = self._client(PbeClient)
        self.loop = self._client(ReferencePbeClient)
        self.seq = 0

    def _client(self, cls):
        monitor = PbeMonitor(OWN, {0: 100, 1: 100}, primary_cell=0,
                             own_rate_hint=lambda: (self.rate, 1e-6))
        return cls(self.sim, 1, PacketSink(self.sim), monitor)

    def advance(self, ms):
        self.sim.run(until_us=self.sim.now + ms * 1_000)

    def feed(self, n, own_prbs=50, secondary=False):
        """``n`` decoded subframes up to now (1 ms apart)."""
        for _ in range(n):
            self.advance(1)
            subframe = self.sim.now // 1_000
            for client in (self.block, self.loop):
                for cell in (0, 1):
                    record = SubframeRecord(subframe, cell, 100)
                    if own_prbs and (cell == 0 or secondary):
                        record.messages.append(DciMessage(
                            subframe, cell, OWN, own_prbs, 12, 2,
                            tbs_bits=own_prbs * self.rate))
                    client.monitor.decoder_callback(cell)(record)

    def burst(self, packets):
        """``packets`` = ``[(delay_us, srtt_us, size_bits)]``, all now."""
        now = self.sim.now
        for client in (self.block, self.loop):
            burst = []
            for i, (delay_us, srtt_us, size_bits) in enumerate(packets):
                packet = Packet(1, self.seq + i, size_bits,
                                sent_time_us=now - delay_us, srtt_us=srtt_us)
                burst.append(packet)
            if client is self.block:
                client.receive_block(burst)
            else:
                for packet in burst:
                    client.receive(packet)
        self.seq += len(packets)
        self.check()

    def check(self):
        block, loop, now = self.block, self.loop, self.sim.now
        acks = [[(a.seq, a.sent_time_us, a.feedback)
                 for a in c.uplink.packets] for c in (block, loop)]
        assert acks[0] == acks[1]              # equal feedback values
        assert block.uplink.arrival_us == loop.uplink.arrival_us
        for name in ("state", "state_changes",
                     "stale_reports", "dprop_us", "delay_margin_us",
                     "_over_threshold_run", "_under_threshold_run",
                     "_last_report"):
            assert getattr(block, name) == getattr(loop, name), name
        assert block.state_fractions(now) == loop.state_fractions(now)
        for name in ("arrival_us", "size_bits", "delay_us",
                     "first_arrival_us", "last_arrival_us", "total_bits"):
            assert getattr(block.stats, name) \
                == getattr(loop.stats, name), name
        for client in (block, loop):
            assert client._recent_bits \
                == sum(bits for _, bits in client._recent)
        assert len(block._recent) <= len(loop._recent)
        for window_us in (60_000, 40_000, 5_000):  # each prunes further
            assert _receive_rate_bps(block, now, window_us) \
                == _receive_rate_bps(loop, now, window_us)


def test_one_burst_with_every_kind_of_change_inside():
    """An srtt change, a new Dprop minimum, a state flip, a stale report
    and a consumed carrier-activation edge, all inside one burst."""
    twins = _Twins(rate=60)                    # small Ct: Npkt = 6
    twins.feed(40)
    twins.burst([(20_000, 40_000, MSS_BITS)] * 4)
    twins.feed(3, secondary=True)              # activation edge pending
    twins.advance(70)                          # ... and the report stale
    block = twins.block
    before = len(block.uplink.packets)
    assert block.state == WIRELESS and block.dprop_us == 20_000
    twins.burst([(60_000, 40_000, MSS_BITS)] * 8      # over Dth: flips
                + [(60_000, 52_000, 4_000)] * 2       # srtt, size change
                + [(15_000, 52_000, MSS_BITS)]        # new Dprop minimum
                + [(44_000, 52_000, MSS_BITS)] * 3)   # under the old Dth,
    #                                                   over the new one
    feedback = [ack.feedback for ack in block.uplink.packets[before:]]
    assert len(feedback) == 14
    assert feedback[0].carrier_activated
    assert not any(fb.carrier_activated for fb in feedback[1:])
    assert all(fb.stale for fb in feedback)
    assert block.stale_reports == 14
    flipped = [fb.internet_bottleneck for fb in feedback].index(True)
    assert 3 <= flipped < 8
    assert all(fb.internet_bottleneck for fb in feedback[flipped:])
    assert block.state_changes[-1] == (twins.sim.now, INTERNET)
    assert block.dprop_us == 15_000
    assert block._over_threshold_run == 3      # against the new Dth
    # ACKs of one report and one state share one frozen object.
    assert feedback[flipped] is feedback[flipped + 1]
    assert feedback[flipped] is not feedback[flipped - 1]
    assert len({id(fb) for fb in feedback}) == 4


_DELAYS_US = [15_000, 20_000, 22_000, 30_000, 48_000, 60_000, 80_000]
_SRTTS_US = [0, 38_000, 40_000, 40_900, 52_000]
_STEPS = st.one_of(
    st.tuples(st.just("feed"), st.integers(1, 30), st.integers(0, 80),
              st.booleans()),
    st.tuples(st.just("gap"), st.integers(1, 120)),
    st.tuples(st.just("burst"), st.lists(
        st.tuples(st.sampled_from(_DELAYS_US), st.sampled_from(_SRTTS_US),
                  st.sampled_from([4_000, MSS_BITS])),
        min_size=1, max_size=25)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([30, 60, 300, 1000]), st.lists(_STEPS, max_size=25))
def test_receive_block_matches_the_per_packet_loop(rate, steps):
    twins = _Twins(rate)
    twins.feed(2)
    for step in steps:
        if step[0] == "feed":
            twins.feed(*step[1:])
        elif step[0] == "gap":
            twins.advance(step[1])
        else:
            twins.burst(step[1])   # compares the twins after each burst


def test_foreign_and_ack_packets_in_a_burst_are_skipped():
    twins = _Twins()
    twins.feed(5)
    for client in (twins.block, twins.loop):
        stray = [Packet(2, 0, MSS_BITS, sent_time_us=0),
                 Packet(1, 0, 320, is_ack=True)]
        client.receive_block(stray)
        assert not client.uplink.packets and client.stats.packets == 0
    twins.check()


# ----------------------------------------------------------------------
# FlowStats.record_block ≡ a record loop
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.integers(0, 10**9),
    st.lists(st.tuples(st.integers(1, 12_000), st.integers(0, 10**6)),
             max_size=8)), max_size=8))
def test_record_block_matches_a_record_loop(bursts):
    block, loop = FlowStats(1), FlowStats(1)
    for arrival_us, rows in bursts:
        block.record_block(arrival_us, [size for size, _ in rows],
                           [delay for _, delay in rows])
        for size, delay in rows:
            loop.record(arrival_us, size, delay)
    assert vars(block) == vars(loop)
