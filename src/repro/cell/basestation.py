"""The cellular network: cells, users, scheduling, HARQ and CA.

:class:`CellularNetwork` is the MAC-layer heart of the reproduction.
Once per subframe (1 ms) it runs, for every component carrier:

1. HARQ retransmissions due this subframe (8 ms after failure, §3);
2. control-plane parameter-update bursts (Figure 7 population);
3. equal-share water-filling PRB allocation over backlogged data users;
4. transport-block assembly, error drawing and delivery to the UE;
5. emission of the subframe's decoded control channel (DCI records) to
   any attached monitors — the stream PBE-CC's measurement module
   consumes;
6. the carrier-aggregation manager's per-user activation decisions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..net.link import Receiver
from ..net.packet import Packet
from ..net.sim import Simulator
from ..net.units import SUBFRAME_US
from ..phy.carrier import AggregationState, CarrierConfig
from ..phy.channel import ChannelModel
from ..phy.dci import DciMessage, SubframeRecord
from ..phy.error import (
    block_error_rate,
    retransmission_ber,
    sinr_to_ber,
    sinr_to_ber_block,
)
from ..phy.harq import MAX_RETRANSMISSIONS, RETX_DELAY_SUBFRAMES
from ..phy.mcs import (
    MAX_MCS_INDEX,
    bits_per_prb,
    bits_per_prb_block,
    sinr_to_mcs_block,
)
from .ca_manager import CaPolicy, CarrierAggregationManager
from .control_traffic import ControlTrafficGenerator
from .queues import PROTOCOL_OVERHEAD, DownlinkQueue, TransportBlock
from .scheduler import (
    DemandEntry,
    ProportionalFairState,
    allocate_prbs,
)
from .ue import UserEquipment

#: SINR above which a UE uses its full spatial-stream count.
MIMO_SINR_THRESHOLD_DB = 10.0
#: Control-plane bursts use the most robust MCS.
CONTROL_MCS = 4
#: Their fixed per-PRB rate, precomputed for the per-burst hot path.
_CONTROL_BITS_PER_PRB = bits_per_prb(CONTROL_MCS, 1)
#: Share of a transport block left for payload after γ (Eqn. 5).
_PAYLOAD_SHARE = 1.0 - PROTOCOL_OVERHEAD
#: Builds the engine's DCI messages without ``DciMessage.__new__``'s
#: range checks (``_make`` semantics, docs/API.md): grants are never
#: negative and TB sizes are products of non-negative rates.
_new_dci = tuple.__new__
#: Subframes of channel trajectory precomputed per user per block (one
#: ``sinr_block`` draw + one vectorized SINR→MCS→rate/BER chain instead
#: of 64 scalar rounds).
CHANNEL_BLOCK_SUBFRAMES = 64


@dataclass
class UeCategory:
    """Hardware capabilities of a phone model."""

    max_mcs: int = MAX_MCS_INDEX
    max_streams: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.max_mcs <= MAX_MCS_INDEX:
            raise ValueError("max_mcs out of range")
        if not 1 <= self.max_streams <= 4:
            raise ValueError("max_streams out of range")


@dataclass(slots=True)
class _HarqState:
    tb: TransportBlock
    base_ber: float
    attempt: int = 0


class DemandSource:
    """Optional per-subframe synthetic demand (exogenous/background users).

    ``bits(subframe)`` returns how many bits arrive into the user's
    downlink queue at the start of that subframe.
    """

    def bits(self, subframe: int) -> int:  # pragma: no cover - protocol
        raise NotImplementedError


class _User:
    """Internal per-user state inside the network."""

    __slots__ = (
        "rnti", "agg", "channel", "category", "queue", "ue", "tb_seq",
        "demand_source", "sinr_db", "current_mcs", "current_streams",
        "rate_now", "ber_now", "active_cell_set", "active_prb_total",
        "allocated_history", "exo_packet_seq", "suspended_until",
        "_sinr_history", "_blk_idx", "_blk_len",
        "_blk_sinr", "_blk_mcs", "_blk_streams", "_blk_rate", "_blk_ber",
    )

    def __init__(self, rnti: int, agg: AggregationState,
                 channel: ChannelModel, category: UeCategory,
                 queue: DownlinkQueue, ue: Optional[UserEquipment],
                 cqi_delay_subframes: int = 0) -> None:
        self.rnti = rnti
        self.agg = agg
        self.channel = channel
        self.category = category
        self.queue = queue
        self.ue = ue
        self.tb_seq = 0
        self.demand_source: Optional[DemandSource] = None
        self.sinr_db = 0.0
        self.current_mcs = 0
        self.current_streams = 1
        self.rate_now = bits_per_prb(0, 1)
        self.ber_now = sinr_to_ber(0.0)
        #: Channel block cache: the next ``_blk_len - _blk_idx``
        #: subframes of channel state, filled by fill_channel_block.
        self._blk_idx = 0
        self._blk_len = 0
        self._blk_sinr: list[float] = []
        self._blk_mcs: list[int] = []
        self._blk_streams: list[int] = []
        self._blk_rate: list[int] = []
        self._blk_ber: list[float] = []
        #: Cached views of ``agg.active_cells`` (membership set, PRB
        #: total) — refreshed by the network whenever aggregation
        #: changes, so the per-subframe loops avoid rebuilding them.
        self.active_cell_set: set[int] = set()
        self.active_prb_total = 0
        #: Optional per-subframe ``(subframe, cell_id, prbs)`` log.
        self.allocated_history: Optional[list] = None
        self.exo_packet_seq = 0
        #: Scheduling suspended until this subframe (handover gap).
        self.suspended_until = -1
        #: The SINRs of the last delay+1 *consumed* subframes (newest
        #: last), for the CQI-reporting delay; the current block's are
        #: appended only as far as the block was used.
        self._sinr_history: deque[float] = deque(
            maxlen=cqi_delay_subframes + 1)

    def fill_channel_block(self, now_us: int,
                           cqi_delay_subframes: int,
                           n_subframes: int = CHANNEL_BLOCK_SUBFRAMES,
                           ) -> None:
        """Precompute the next block of per-subframe channel state.

        One ``sinr_block`` draw plus one vectorized SINR→CQI→MCS→rate/
        BER chain gives ``n`` subframes of SINR, MCS, streams, rate and
        BER, bitwise-equal to sampling every subframe (the oracle in
        ``tests/reference_engine.py``).  With ``cqi_delay_subframes > 0``
        the link adaptation uses the SINR the UE reported that many
        subframes earlier — the real CQI-reporting loop — while
        transport-block errors are always drawn at the *current*
        channel, so fast fades genuinely hurt.
        """
        history = self._sinr_history
        history.extend(self._blk_sinr[:self._blk_idx])
        sinr = self.channel.sinr_block(now_us, n_subframes)
        if cqi_delay_subframes > 0:
            # reported[k] is the SINR ``delay`` subframes before sinr[k]
            # (or the oldest one known): element max(0, h+k-delay) of
            # the (history + block) concatenation.
            h = len(history)
            if h:
                joined = np.concatenate(
                    [np.asarray(history, dtype=np.float64), sinr])
            else:
                joined = sinr
            reported = joined[np.maximum(
                h + np.arange(n_subframes) - cqi_delay_subframes, 0)]
        else:
            reported = sinr
        mcs = sinr_to_mcs_block(reported, self.category.max_mcs)
        streams = np.where(reported >= MIMO_SINR_THRESHOLD_DB,
                           self.category.max_streams, 1)
        # Plain-Python lists: per-tick indexing below is several times
        # cheaper than numpy scalar extraction, and the float64→float
        # round-trip is exact.
        self._blk_sinr = sinr.tolist()
        self._blk_mcs = mcs.tolist()
        self._blk_streams = streams.tolist()
        self._blk_rate = bits_per_prb_block(mcs, streams).tolist()
        self._blk_ber = sinr_to_ber_block(sinr).tolist()
        self._blk_idx = 0
        self._blk_len = n_subframes

    def refresh_from_block(self, slot: int) -> None:
        """Adopt one precomputed subframe of channel state."""
        self.sinr_db = self._blk_sinr[slot]
        self.current_mcs = self._blk_mcs[slot]
        self.current_streams = self._blk_streams[slot]
        self.rate_now = self._blk_rate[slot]
        self.ber_now = self._blk_ber[slot]
        self._blk_idx = slot + 1

    def invalidate_channel_block(self) -> None:
        """Drop precomputed channel state (channel swap); the CQI
        history keeps only the subframes actually consumed."""
        self._sinr_history.extend(self._blk_sinr[:self._blk_idx])
        self._blk_idx = 0
        self._blk_len = 0


class _Ingress(Receiver):
    """Adapter: wired-network packets land in one user's downlink queue.

    The base station reads its queues once per subframe, so a packet
    handed over ahead of time (``receive_at``, see :class:`Receiver`)
    costs no event: it waits in ``wire`` until the network's next drain
    at or after its arrival instant.
    """

    SNAPSHOT_SKIP = ("network",)

    def __init__(self, network: "CellularNetwork", rnti: int) -> None:
        self.network = network
        self.rnti = rnti
        #: ``(arrival_us, packet)`` still on the wire, in arrival order.
        self.wire: deque[tuple[int, Packet]] = deque()

    def receive(self, packet: Packet) -> None:
        self.network.enqueue(self.rnti, packet)

    def receive_at(self, packet: Packet, arrival_us: int) -> bool:
        wire = self.wire
        if wire and arrival_us < wire[-1][0]:
            return False  # would overtake the FIFO: take it as an event
        wire.append((arrival_us, packet))
        return True


class CellularNetwork:
    """All cells of one operator around the measurement location."""

    #: Checkpointing (see repro.statedict): wiring and config restored
    #: from the rebuilt experiment, plus the tick rosters, which the
    #: first tick after ``_after_restore`` rebuilds.
    SNAPSHOT_SKIP = ("sim", "perf", "carriers", "_prbs_by_cell",
                     "_monitors", "_user_list", "_live_cells",
                     "_cell_roster", "_exo_users", "_ca_users")

    def __init__(self, sim: Simulator, carriers: list[CarrierConfig],
                 ca_policy: Optional[CaPolicy] = None,
                 control_arrivals_per_subframe: "float | dict[int, float]"
                 = 0.0,
                 scheduler_policy: str = "equal",
                 cqi_delay_subframes: int = 0,
                 seed: int = 0,
                 perf_counters: Optional[Any] = None) -> None:
        if cqi_delay_subframes < 0:
            raise ValueError("CQI delay must be non-negative")
        if not carriers:
            raise ValueError("need at least one carrier")
        ids = [c.cell_id for c in carriers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate cell ids")
        self.sim = sim
        self.scheduler_policy = scheduler_policy
        self.cqi_delay_subframes = cqi_delay_subframes
        self.carriers = {c.cell_id: c for c in carriers}
        #: ``cell_id -> PRBs`` (``CarrierConfig.total_prbs`` is a
        #: computed property; the subframe loop reads this dict instead).
        self._prbs_by_cell = {c.cell_id: c.total_prbs for c in carriers}
        self.ca = CarrierAggregationManager(ca_policy)
        self._rng = np.random.default_rng(seed)
        self._users: dict[int, _User] = {}
        #: One wired-side adapter per RNTI ever asked for; their ``wire``
        #: FIFOs are the packets in flight towards this network.
        self._ingresses: dict[int, _Ingress] = {}
        #: Packets that arrived for an unknown or detached RNTI.
        self.unrouted_packets = 0
        #: Transport blocks on the air: ``(ue, [(tb, decoded), ...])`` in
        #: ``_transmit`` order, consecutive blocks of one UE sharing an
        #: entry; landed at the top of the next tick.  (Snapshots encode
        #: attributes in this order, so each ``ue`` here is a reference
        #: to the one already written under ``_users``.)
        self._air: list[tuple[UserEquipment, list]] = []
        #: Tick rosters (DESIGN.md, "Tick rosters"): what the subframe
        #: loop visits, built by ``_build_rosters`` at the next tick
        #: after anything that could change them set ``_live_cells`` to
        #: None.  ``_live_cells`` holds ``(cell_id, total_prbs)`` of the
        #: cells to tick, in ``carriers`` order; ``_cell_roster`` each
        #: live cell's active users, ``_user_list`` every user,
        #: ``_exo_users`` those with a demand source and ``_ca_users``
        #: those the CA manager observes — all in ``_users`` order.
        self._live_cells: Optional[list[tuple[int, int]]] = None
        self._cell_roster: dict[int, list[_User]] = {}
        self._user_list: list[_User] = []
        self._exo_users: list[_User] = []
        self._ca_users: list[_User] = []
        self.perf = perf_counters
        self.subframe = 0
        self._retx: dict[tuple[int, int], list[_HarqState]] = {}
        self._monitors: dict[int, list[Callable[[SubframeRecord], None]]] = {
            c: [] for c in self.carriers}
        # One control-plane rate for every cell (a float), or a
        # per-cell mapping (metro grids mix busy and idle cells in one
        # network); missing cells fall back to 0.0 like the default.
        if isinstance(control_arrivals_per_subframe, dict):
            rate_for = lambda c: control_arrivals_per_subframe.get(c, 0.0)
        else:
            rate_for = lambda c: control_arrivals_per_subframe
        self._control = {
            cell_id: ControlTrafficGenerator(
                rate_for(cell_id), seed=seed + 17 * cell_id)
            for cell_id in self.carriers}
        self._pf: dict[int, ProportionalFairState] = {}
        if scheduler_policy == "proportional_fair":
            self._pf = {cell_id: ProportionalFairState()
                        for cell_id in self.carriers}
        self._started = False
        #: Users configured (not merely active) per cell; a cell with
        #: no configured users and no monitors is unobservable.
        self._cell_user_count = {c: 0 for c in self.carriers}
        #: Pending HARQ retransmissions per cell (skip-safety guard).
        self._cell_retx_count = {c: 0 for c in self.carriers}
        #: First subframe each currently unobservable cell's tick was
        #: skipped at — its control-traffic RNG is caught up by
        #: replaying the generator ticks since then if the cell ever
        #: becomes observable.
        self._dormant_since: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_user(self, rnti: int, cells: list[int], channel: ChannelModel,
                 category: Optional[UeCategory] = None,
                 on_packet_block: Optional[
                     Callable[[list[Packet]], None]] = None,
                 queue_packets: int = 3000,
                 log_allocations: bool = False) -> UserEquipment:
        """Attach a full transport endpoint user; returns its UE object
        (``on_packet_block`` takes each instant's delivered burst)."""
        ue = UserEquipment(self.sim, rnti, on_packet_block)
        user = self._make_user(rnti, cells, channel, category,
                               queue_packets, ue)
        if log_allocations:
            user.allocated_history = []
        return ue

    def add_exogenous_user(self, rnti: int, cells: list[int],
                           channel: ChannelModel,
                           demand: DemandSource,
                           category: Optional[UeCategory] = None,
                           queue_packets: int = 3000) -> None:
        """Attach a background user whose demand is generated at the MAC.

        Its delivered transport blocks are discarded — only its PRB
        footprint matters (competing traffic, Figure 18/19).
        """
        user = self._make_user(rnti, cells, channel, category,
                               queue_packets, ue=None)
        user.demand_source = demand

    def _make_user(self, rnti: int, cells: list[int],
                   channel: ChannelModel, category: Optional[UeCategory],
                   queue_packets: int, ue: Optional[UserEquipment]) -> _User:
        if rnti in self._users:
            raise ValueError(f"duplicate RNTI {rnti}")
        for cell in cells:
            if cell not in self.carriers:
                raise ValueError(f"unknown cell {cell}")
        self._check_channel_owner(channel, rnti)
        self._drain_wire()  # arrivals so far found no such user
        user = _User(rnti, AggregationState(configured=list(cells)),
                     channel, category or UeCategory(),
                     DownlinkQueue(queue_packets), ue,
                     cqi_delay_subframes=self.cqi_delay_subframes)
        self._users[rnti] = user
        self._refresh_active_cells(user)
        for cell in cells:
            self._cell_user_count[cell] += 1
            self._catch_up_control(cell)
        return user

    def _check_channel_owner(self, channel: ChannelModel, rnti: int) -> None:
        """A channel model belongs to one live user: its block cache
        draws the model's stream ahead of the clock for that user alone."""
        for other in self._users.values():
            if other.channel is channel and other.rnti != rnti:
                raise ValueError(
                    f"channel model already held by RNTI {other.rnti}")

    def _catch_up_control(self, cell_id: int) -> None:
        """Replay control-generator ticks skipped while unobservable.

        The replayed ticks draw the identical arrival/burst sequence
        ticking the cell every subframe would have drawn, so the
        generator's RNG stream and in-flight burst list re-converge
        exactly before the cell's next observed subframe.  Idle
        stretches are crossed with :meth:`ControlTrafficGenerator.
        advance_idle` — one block Poisson draw per stretch instead of a
        Python-level tick per subframe — so catching a cell up after a
        long unobserved gap costs O(bursty subframes), not O(gap).
        """
        since = self._dormant_since.pop(cell_id, None)
        if since is not None:
            lag = self.subframe - since
            generator = self._control[cell_id]
            advance = generator.advance_idle
            generator_tick = generator.tick
            while lag:
                skipped = advance(lag)
                lag -= skipped
                if lag:
                    generator_tick()
                    lag -= 1

    def remove_user(self, rnti: int) -> None:
        """Detach a user (its queued traffic is discarded)."""
        self._drain_wire()  # arrivals so far still found the user
        user = self._users.pop(rnti, None)
        if user is not None:
            self._live_cells = None
            self.ca.forget(rnti)
            for cell in user.agg.configured:
                self._cell_user_count[cell] -= 1

    def _refresh_active_cells(self, user: _User) -> None:
        """Rebuild the user's cached active-cell set and PRB total."""
        self._live_cells = None
        cells = user.agg.active_cells
        user.active_cell_set = set(cells)
        prbs = self._prbs_by_cell
        user.active_prb_total = sum(prbs[c] for c in cells)

    #: Default handover interruption (scheduling gap), subframes.  LTE
    #: X2 handovers typically interrupt the user plane for 30-50 ms.
    HANDOVER_GAP_SUBFRAMES = 40

    def handover(self, rnti: int, new_cells: list[int],
                 interruption_subframes: int = HANDOVER_GAP_SUBFRAMES,
                 channel: Optional[ChannelModel] = None) -> None:
        """Move a user to a new (primary-first) cell list (§1).

        Models an X2-style handover with data forwarding: the user's
        downlink queue survives, but scheduling pauses for the
        interruption gap, carrier aggregation restarts from the new
        primary alone, and HARQ processes pending on cells the user is
        leaving are abandoned (their transport blocks are lost — the
        transport layer recovers them end to end).  A ``channel`` other
        than the user's own replaces it from the next subframe on.
        """
        if interruption_subframes < 0:
            raise ValueError("interruption must be non-negative")
        user = self._users.get(rnti)
        if user is None:
            raise ValueError(f"unknown RNTI {rnti}")
        for cell in new_cells:
            if cell not in self.carriers:
                raise ValueError(f"unknown cell {cell}")
        if channel is not None:
            self._check_channel_owner(channel, rnti)

        # Abandon HARQ processes stranded on cells being left.
        keeping = set(new_cells)
        for key in list(self._retx):
            cell_id, _subframe = key
            if cell_id in keeping:
                continue
            kept = []
            for harq in self._retx[key]:
                if harq.tb.rnti == rnti:
                    if user.ue is not None:
                        self.sim.schedule(0, user.ue.abandon_tb, harq.tb)
                else:
                    kept.append(harq)
            self._cell_retx_count[cell_id] -= (
                len(self._retx[key]) - len(kept))
            if kept:
                self._retx[key] = kept
            else:
                del self._retx[key]

        for cell in user.agg.configured:
            self._cell_user_count[cell] -= 1
        user.agg = AggregationState(configured=list(new_cells))
        for cell in new_cells:
            self._cell_user_count[cell] += 1
            self._catch_up_control(cell)
        user.suspended_until = self.subframe + interruption_subframes
        if channel is not None and channel is not user.channel:
            user.invalidate_channel_block()
            user.channel = channel
        self._refresh_active_cells(user)
        # The new cell group starts its CA bookkeeping from scratch.
        self.ca.forget(rnti)

    def _after_restore(self) -> None:
        """Rebuild derived views after a checkpoint restore: the tick
        rosters are rebuilt by the next tick (the block caches come
        straight from the snapshot)."""
        self._live_cells = None

    def ingress(self, rnti: int) -> Receiver:
        """Wired-side entry point delivering into one user's queue.

        The RNTI is resolved at packet-arrival time, so the ingress can
        be wired up before :meth:`add_user` attaches the user (traffic
        for unknown/departed users is dropped and counted in
        ``unrouted_packets``, like a network routing to a detached
        device).
        """
        ingress = self._ingresses.get(rnti)
        if ingress is None:
            ingress = self._ingresses[rnti] = _Ingress(self, rnti)
        return ingress

    def attach_monitor(self, cell_id: int,
                       callback: Callable[[SubframeRecord], None]) -> None:
        """Subscribe a control-channel decoder to one cell."""
        self._catch_up_control(cell_id)
        self._monitors[cell_id].append(callback)
        self._live_cells = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def user(self, rnti: int) -> _User:
        self._drain_wire()
        return self._users[rnti]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def enqueue(self, rnti: int, packet: Packet) -> None:
        self._drain_wire()
        self._push_for(rnti)(packet)

    def _push_for(self, rnti: int) -> Callable[[Packet], Any]:
        user = self._users.get(rnti)
        return self._count_unrouted if user is None else user.queue.push

    def _count_unrouted(self, packet: Packet) -> None:
        self.unrouted_packets += 1  # user departed; traffic is dropped

    def _drain_wire(self) -> None:
        """Land every wire packet that has arrived (``arrival_us <= now``).

        Runs at the top of each subframe — a packet arriving exactly on
        the boundary is schedulable in that subframe — and before
        anything that changes ``_users`` or exposes a queue, so each
        packet meets the user set of its own arrival instant.
        """
        now = self.sim.now
        for ingress in self._ingresses.values():
            wire = ingress.wire
            if wire and wire[0][0] <= now:
                push = self._push_for(ingress.rnti)
                while wire and wire[0][0] <= now:
                    push(wire.popleft()[1])

    # ------------------------------------------------------------------
    # Subframe engine
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking once per subframe."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self.sim.schedule(0, self._tick)

    def _tick(self) -> None:
        # Last subframe's transport blocks land first: they were events
        # queued just ahead of this tick (DESIGN.md, "Event-free air
        # interface"), one burst per run of same-UE blocks.
        if self._air:
            air, self._air = self._air, []
            for ue, entries in air:
                ue.receive_subframe(entries)
        self._drain_wire()
        now = self.sim.now
        subframe = self.subframe
        live = self._live_cells
        if live is None:
            live = self._build_rosters(subframe)
        users = self._user_list
        cqi_delay = self.cqi_delay_subframes
        for user in users:
            # Refresh from the per-user channel block cache, refilling
            # it (one vectorized SINR→CQI→MCS→rate→BER pass) whenever
            # the cursor runs off the end.  Block sampling consumes the
            # channel RNG stream exactly like per-subframe calls, so
            # this is byte-identical to sampling every subframe.
            slot = user._blk_idx
            if slot >= user._blk_len:
                user.fill_channel_block(now, cqi_delay)
                slot = 0
            user.refresh_from_block(slot)
        # Injection touches only the user's own demand RNG and queue,
        # never a channel, so it may follow the whole refresh loop.
        for user in self._exo_users:
            self._inject_exogenous(user, subframe)

        used_by_user: dict[int, int] = {}
        for cell_id, total_prbs in live:
            self._tick_cell(cell_id, total_prbs, subframe, used_by_user)

        observe = self.ca.observe
        used_get = used_by_user.get
        for user in self._ca_users:
            switched = observe(
                subframe, user.rnti, user.agg,
                used_prbs=used_get(user.rnti, 0),
                active_total_prbs=user.active_prb_total,
                backlogged=bool(user.queue._packets))
            if switched is not None:
                self._refresh_active_cells(user)

        self.subframe += 1
        self.sim.schedule(SUBFRAME_US, self._tick)
        perf = self.perf
        if perf is not None:
            perf.ticks += 1

    def _build_rosters(self, subframe: int) -> list[tuple[int, int]]:
        """Rebuild the tick rosters; returns the live cells.

        The one place that decides which cells tick and who is on them.
        A cell on which nothing can be observed (no monitor, no
        configured user, no HARQ in flight, no PF bookkeeping with
        amortized eviction) is left out and stamped in
        ``_dormant_since``, deferring its control-traffic RNG draws until
        ``_catch_up_control``.  Only a cell kept live by HARQ alone can
        go dormant without an invalidating call — when its last
        retransmission drains — so while one exists the rosters stay
        stale and the next tick rebuilds them again.
        """
        live: list[tuple[int, int]] = []
        retx_only = False
        for cell_id, total_prbs in self._prbs_by_cell.items():
            if (not self._monitors[cell_id]
                    and self._cell_user_count[cell_id] == 0
                    and cell_id not in self._pf):
                if self._cell_retx_count[cell_id] == 0:
                    self._dormant_since.setdefault(cell_id, subframe)
                    continue
                retx_only = True
            live.append((cell_id, total_prbs))
        roster: dict[int, list[_User]] = {cell_id: [] for cell_id, _ in live}
        users = self._user_list = list(self._users.values())
        for user in users:
            for cell_id in user.active_cell_set:
                roster[cell_id].append(user)
        self._cell_roster = roster
        self._exo_users = [u for u in users if u.demand_source is not None]
        # A single-cell user can neither activate nor deactivate a
        # carrier (AggregationState gates both on the configured count),
        # so observe() could only append to unobservable per-user
        # history: such users are left out.
        self._ca_users = [u for u in users
                          if len(u.agg.configured) != 1]
        self._live_cells = None if retx_only else live
        return live

    def _inject_exogenous(self, user: _User, subframe: int) -> None:
        bits = user.demand_source.bits(subframe)
        if bits <= 0:
            return
        now = self.sim.now
        flow_id = -user.rnti
        push = user.queue.push
        while bits > 0:
            size = min(bits, 12_000)
            packet = Packet(flow_id=flow_id, seq=user.exo_packet_seq,
                            size_bits=size, sent_time_us=now)
            user.exo_packet_seq += 1
            push(packet)
            bits -= size

    def _tick_cell(self, cell_id: int, total_prbs: int,
                   subframe: int, used_by_user: dict[int, int]) -> None:
        available = total_prbs
        callbacks = self._monitors[cell_id]
        # DciMessage/SubframeRecord objects exist only for the decoders
        # subscribed to this cell; with no monitor attached the
        # allocation bookkeeping below is the whole observable effect,
        # so the message construction is skipped outright.
        messages: Optional[list[DciMessage]] = [] if callbacks else None

        # 1. HARQ retransmissions due this subframe.
        if self._cell_retx_count[cell_id]:
            due = self._retx.pop((cell_id, subframe), [])
            self._cell_retx_count[cell_id] -= len(due)
            deferred: list[_HarqState] = []
            for harq in due:
                if harq.tb.n_prbs > available:
                    deferred.append(harq)
                    continue
                available -= harq.tb.n_prbs
                self._transmit(harq, subframe, messages, used_by_user)
            if deferred:
                self._retx.setdefault((cell_id, subframe + 1), []).extend(
                    deferred)
                self._cell_retx_count[cell_id] += len(deferred)

        # 2. Control-plane parameter-update bursts.
        for burst in self._control[cell_id].tick():
            grant = min(burst.prbs, available)
            if grant <= 0:
                break
            available -= grant
            if messages is not None:
                messages.append(_new_dci(DciMessage, (
                    subframe, cell_id, burst.rnti, grant, CONTROL_MCS, 1,
                    grant * _CONTROL_BITS_PER_PRB, True, True)))

        # 3. Equal-share allocation over backlogged data users.
        demands = []
        roster = self._cell_roster[cell_id]
        for user in roster:
            queue = user.queue
            if not queue._packets or subframe < user.suspended_until:
                continue
            demands.append(DemandEntry(user.rnti, queue.backlog_bits,
                                       user.rate_now))
        pf = self._pf.get(cell_id)
        grants = allocate_prbs(available, demands, subframe,
                               self.scheduler_policy, pf)

        # 4. Transport-block assembly and transmission.
        served_bits: dict[int, int] = {}
        users = self._users
        transmit = self._transmit
        for rnti, n_prbs in grants.items():
            user = users[rnti]
            tb = TransportBlock(
                user.tb_seq, rnti, cell_id, subframe,
                n_prbs * user.rate_now, n_prbs,
                user.current_mcs, user.current_streams)
            user.tb_seq += 1
            # γ of the TB is protocol headers (Eqn. 5): only the rest
            # carries transport-layer payload.
            pulled = user.queue.pull(int(tb.bits * _PAYLOAD_SHARE), tb)
            if pulled:
                tb.bits = int(pulled / _PAYLOAD_SHARE)
            served_bits[rnti] = tb.bits
            transmit(_HarqState(tb, user.ber_now), subframe, messages,
                     used_by_user)
            if user.allocated_history is not None:
                user.allocated_history.append((subframe, cell_id, n_prbs))

        if pf is not None:
            pf.record(served_bits, {u.rnti for u in roster})

        # 5. Publish the decoded control channel.
        if callbacks:
            record = SubframeRecord(subframe, cell_id, total_prbs,
                                    messages)
            for callback in callbacks:
                callback(record)

    def _transmit(self, harq: _HarqState, subframe: int,
                  messages: Optional[list[DciMessage]],
                  used_by_user: dict[int, int]) -> None:
        tb = harq.tb
        rnti = tb.rnti
        attempt = harq.attempt
        if messages is not None:
            messages.append(_new_dci(DciMessage, (
                subframe, tb.cell_id, rnti, tb.n_prbs, tb.mcs,
                tb.spatial_streams, tb.bits, attempt == 0, False)))
        used_by_user[rnti] = used_by_user.get(rnti, 0) + tb.n_prbs
        user = self._users.get(rnti)
        if user is None:
            return  # user departed mid-HARQ

        # A first transmission's BER is the base BER (ber * 0.1 ** 0).
        ber = (retransmission_ber(harq.base_ber, attempt) if attempt
               else harq.base_ber)
        failed = self._rng.random() < block_error_rate(ber, tb.bits)
        if failed and attempt < MAX_RETRANSMISSIONS:
            harq.attempt = attempt + 1
            key = (tb.cell_id, subframe + RETX_DELAY_SUBFRAMES)
            self._retx.setdefault(key, []).append(harq)
            self._cell_retx_count[tb.cell_id] += 1
        elif user.ue is not None:
            # Decoded, or abandoned after the last retransmission: the
            # UE learns one subframe later, at the top of the next tick.
            air = self._air
            if air and air[-1][0] is user.ue:
                air[-1][1].append((tb, not failed))
            else:
                air.append((user.ue, [(tb, not failed)]))
