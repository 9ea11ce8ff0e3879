"""Pantheon-like experiment runner (§6.1).

Assembles the full end-to-end path for each flow — content server,
wired Internet segment, base-station queues, wireless subframe engine,
mobile receiver, ACK return path — runs the event loop and returns the
paper's measurement set per flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..baselines import (
    AckingReceiver,
    Bbr,
    CongestionControl,
    Copa,
    Cubic,
    FixedRate,
    PccAllegro,
    PccVivace,
    Sender,
    Sprout,
    Verus,
)
from ..cell.basestation import CellularNetwork
from ..core.client import PbeClient
from ..core.sender import PbeSender
from ..faults import FaultSpec, ImpairedPipe, LossyDecoder
from ..monitor.pbe import PbeMonitor
from ..net.flow import FlowStats
from ..net.link import BatchingPipe, FlowDemux, Link, Receiver
from ..net.sim import Simulator
from ..net.units import US_PER_S, us_from_seconds
from ..phy.channel import ChannelModel
from ..traces.workload import OnOffRandomDemand
from .metrics import FlowSummary, summarize_flow
from .scenarios import Scenario

#: RNTI range for devices under test.
TEST_RNTI_BASE = 100
#: RNTI range for background (exogenous) users.
BACKGROUND_RNTI_BASE = 1_000

#: Scheme-name registry (the eight algorithms of §6.1 and CBR).
SCHEMES: dict[str, Callable[..., CongestionControl]] = {
    "pbe": PbeSender,
    "bbr": Bbr,
    "cubic": Cubic,
    "verus": Verus,
    "sprout": Sprout,
    "copa": Copa,
    "pcc": PccAllegro,
    "vivace": PccVivace,
    "cbr": FixedRate,
}


def make_cc(scheme: str, seed: int = 0,
            **kwargs) -> CongestionControl:
    """Instantiate a congestion controller by scheme name."""
    try:
        factory = SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEMES)}") from None
    if scheme in ("pcc", "vivace"):
        kwargs.setdefault("seed", seed)
    return factory(**kwargs)


@dataclass
class FlowSpec:
    """One flow's configuration inside a scenario."""

    scheme: str
    rnti: int = TEST_RNTI_BASE
    start_s: float = 0.0
    #: ``None`` runs until the scenario ends.
    duration_s: Optional[float] = None
    #: Per-flow server distance (one-way wired delay override), µs;
    #: refused with ``shared_link``, whose delay is the wired path's.
    internet_delay_us: Optional[int] = None
    #: Channel override (e.g. a mobility trace).
    channel: Optional[ChannelModel] = None
    #: Cells configured for this device (defaults to scenario's).
    cells: Optional[list[int]] = None
    #: Share this wired link instead of a private one (Internet-
    #: bottleneck experiments).
    shared_link: Optional[Link] = None
    log_allocations: bool = False
    #: Application-limited source: cap the send rate below what the
    #: congestion controller allows (e.g. a fixed-bitrate video).
    app_rate_bps: Optional[float] = None
    #: Extra keyword arguments for the scheme's constructor
    #: (e.g. ``{"rate_bps": 60e6}`` for the ``cbr`` scheme).
    cc_kwargs: dict = field(default_factory=dict)
    #: PBE-only ablation knobs for the mobile client / monitor.
    pbe_client_kwargs: dict = field(default_factory=dict)
    pbe_monitor_kwargs: dict = field(default_factory=dict)
    #: Fault-injection knobs, as a JSON-ready
    #: :meth:`repro.faults.FaultSpec.to_dict` dictionary (kept as plain
    #: primitives so batch jobs stay content-fingerprintable).
    faults: Optional[dict] = None

    def fault_spec(self) -> Optional[FaultSpec]:
        """Parsed fault spec, or ``None`` when no faults configured."""
        if not self.faults:
            return None
        return FaultSpec.from_dict(self.faults)


@dataclass
class FlowHandle:
    """Live wiring of one flow (available while the sim runs)."""

    spec: FlowSpec
    sender: Sender
    receiver: AckingReceiver
    cc: CongestionControl
    monitor: Optional[PbeMonitor] = None
    #: Fault injectors installed for this flow, when any.
    impaired_pipe: Optional[ImpairedPipe] = None
    lossy_decoders: dict = field(default_factory=dict)
    #: Wiring kept for checkpointing: the private Internet link
    #: (``None`` when the flow rides a shared bottleneck) and the LTE
    #: uplink batching stage.
    egress: Optional[Link] = None
    uplink: Optional[Receiver] = None

    @property
    def stats(self) -> FlowStats:
        return self.receiver.stats

    def fault_stats(self) -> Optional[dict]:
        """Impairment counters from this flow's injectors."""
        if self.impaired_pipe is None and not self.lossy_decoders:
            return None
        out: dict = {}
        if self.impaired_pipe is not None:
            out["ack_pipe"] = self.impaired_pipe.stats()
        if self.lossy_decoders:
            out["decoders"] = {
                str(cell): lossy.stats()
                for cell, lossy in sorted(self.lossy_decoders.items())}
        return out


@dataclass
class FlowResult:
    """Post-run measurements for one flow."""

    spec: FlowSpec
    summary: FlowSummary
    stats: FlowStats
    sent_packets: int
    lost_packets: int
    ca_activations: int
    #: PBE-only: fraction of time in each bottleneck state.
    state_fractions: Optional[dict] = None
    #: Per-subframe ``(subframe, cell_id, prbs)`` log, if requested.
    allocations: Optional[list] = None
    #: PBE-only: seconds the sender spent in each control state
    #: (startup/wireless/drain/internet/fallback).
    sender_states: Optional[dict] = None
    #: Impairment counters from any installed fault injectors.
    fault_stats: Optional[dict] = None


class Experiment:
    """One scenario's simulation: network plus any number of flows."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.sim = Simulator()
        self.network = CellularNetwork(
            self.sim, scenario.carriers,
            control_arrivals_per_subframe=(
                scenario.control_arrivals_per_subframe),
            scheduler_policy=scenario.scheduler_policy,
            cqi_delay_subframes=scenario.cqi_delay_subframes,
            seed=scenario.seed)
        self.flows: list[FlowHandle] = []
        #: Shared bottleneck links (checkpointed alongside the flows).
        self._shared_links: list[Link] = []
        self._add_background_users()
        self.network.start()

    # ------------------------------------------------------------------
    def _add_background_users(self) -> None:
        scenario = self.scenario
        for i in range(scenario.background_users):
            rnti = BACKGROUND_RNTI_BASE + i
            demand = OnOffRandomDemand(
                mean_on_s=scenario.background_on_s,
                mean_off_s=scenario.background_off_s,
                rate_range_bps=scenario.background_rate_range,
                seed=scenario.seed + 31 * (i + 1))
            self.network.add_exogenous_user(
                rnti, [scenario.carriers[0].cell_id],
                scenario.channel(seed_offset=97 + i), demand)

    # ------------------------------------------------------------------
    def add_flow(self, spec: FlowSpec) -> FlowHandle:
        """Wire up one end-to-end flow and schedule its start/stop."""
        scenario = self.scenario
        sim = self.sim
        cells = spec.cells or scenario.device_cells
        channel = spec.channel or scenario.channel(seed_offset=spec.rnti)

        private_link: Optional[Link] = None
        if spec.shared_link is not None:
            if spec.internet_delay_us is not None:
                # The shared link's own delay is the flow's whole wired
                # path: there is no per-flow hop to put this delay on.
                raise ValueError(
                    "internet_delay_us cannot be set on a shared_link "
                    "flow: the shared link's delay is its wired delay")
            # Shared bottleneck: the link's sink must be a FlowDemux
            # (see make_shared_bottleneck); register this flow's route.
            egress: Receiver = spec.shared_link
            demux = spec.shared_link.sink
            if not isinstance(demux, FlowDemux):
                raise ValueError(
                    "shared_link's sink must be a FlowDemux "
                    "(use Experiment.make_shared_bottleneck)")
            demux.add_route(spec.rnti, self.network.ingress(spec.rnti))
        else:
            private_link = Link(
                sim, self.network.ingress(spec.rnti),
                rate_bps=scenario.internet_rate_bps,
                delay_us=(spec.internet_delay_us
                          if spec.internet_delay_us is not None
                          else scenario.internet_delay_us),
                queue_packets=scenario.internet_queue_packets,
                name=f"internet-{spec.rnti}")
            egress = private_link

        cc = make_cc(spec.scheme, seed=scenario.seed + spec.rnti,
                     **spec.cc_kwargs)
        sender = Sender(sim, flow_id=spec.rnti, cc=cc, egress=egress,
                        app_rate_bps=spec.app_rate_bps)
        # An ACK injector sits *upstream* of the batching stage and
        # draws its RNG per packet in arrival order, so its loss/
        # reorder/dup/corruption decisions land in the held burst
        # unchanged (pinned by the faulted fingerprint configs and
        # tests/test_cc_block.py).
        fault_spec = spec.fault_spec()
        batching = BatchingPipe(
            sim, sender, scenario.uplink_delay_us,
            batch_interval_us=scenario.uplink_batch_us,
            name=f"uplink-{spec.rnti}")
        uplink: Receiver = batching

        # Reverse-path fault injection sits between the phone and the
        # LTE uplink batching stage (any scheme can be impaired).
        impaired_pipe: Optional[ImpairedPipe] = None
        if fault_spec is not None and fault_spec.impairs_pipe:
            impaired_pipe = ImpairedPipe(
                sim, uplink, fault_spec, flow_id=spec.rnti,
                name=f"impaired-{spec.rnti}")
            uplink = impaired_pipe

        monitor: Optional[PbeMonitor] = None
        lossy_decoders: dict = {}
        if spec.scheme == "pbe":
            receiver, monitor, lossy_decoders = self._wire_pbe(
                spec, cells, uplink, fault_spec)
        else:
            receiver = AckingReceiver(sim, spec.rnti, uplink)

        # Released transport blocks hand their packets over as one burst.
        self.network.add_user(
            spec.rnti, cells, channel, on_packet_block=receiver.receive_block,
            log_allocations=spec.log_allocations)

        sim.schedule(us_from_seconds(spec.start_s), sender.start)
        end_s = (spec.start_s + spec.duration_s
                 if spec.duration_s is not None else scenario.duration_s)
        sim.schedule(us_from_seconds(min(end_s, scenario.duration_s)),
                     sender.stop)

        handle = FlowHandle(spec, sender, receiver, cc, monitor,
                            impaired_pipe=impaired_pipe,
                            lossy_decoders=lossy_decoders,
                            egress=private_link, uplink=batching)
        self.flows.append(handle)
        return handle

    def make_shared_bottleneck(self, rate_bps: float, delay_us: int,
                               queue_packets: int = 300) -> Link:
        """Build a wired bottleneck link several flows can share.

        Pass the returned link as each flow's ``FlowSpec.shared_link``;
        routes to the per-user cellular ingress are registered
        automatically as flows are added (§4.2.3's shared-Internet-
        bottleneck topology).
        """
        link = Link(self.sim, FlowDemux(), rate_bps=rate_bps,
                    delay_us=delay_us, queue_packets=queue_packets,
                    name="shared-bottleneck")
        self._shared_links.append(link)
        return link

    def schedule_handover(self, handle: FlowHandle, at_s: float,
                          new_cells: list[int],
                          channel: Optional[ChannelModel] = None) -> None:
        """Hand the flow's device over to a new cell group at ``at_s``.

        For PBE flows the device must have decoders configured for the
        target cells — pass the union of all visited cells in the
        flow's ``cells`` spec.
        """
        self.sim.schedule(us_from_seconds(at_s), self._perform_handover,
                          handle.spec.rnti, new_cells, channel)

    def _perform_handover(self, rnti: int, new_cells: list[int],
                          channel: Optional[ChannelModel]) -> None:
        """Deferred handover body (a bound method — not a closure — so
        a checkpointed heap can re-bind the pending event on restore)."""
        self.network.handover(rnti, new_cells, channel=channel)
        for handle in self.flows:
            if handle.spec.rnti == rnti and handle.monitor is not None:
                handle.monitor.set_primary(new_cells[0])

    def _wire_pbe(self, spec: FlowSpec, cells: list[int],
                  uplink: Receiver,
                  fault_spec: Optional[FaultSpec] = None,
                  ) -> tuple[PbeClient, PbeMonitor, dict]:
        """Build the PBE monitor + client (and injectors) for one device."""
        network = self.network

        def own_rate_hint() -> tuple[int, float]:
            # Runs inside a cell's monitor callback, mid-tick: read the
            # user directly, since network.user() would drain the wire
            # between one cell's grants and the next.
            user = network._users[spec.rnti]
            return user.rate_now, user.ber_now

        cell_prbs = {c: network.carriers[c].total_prbs for c in cells}
        monitor = PbeMonitor(spec.rnti, cell_prbs, primary_cell=cells[0],
                             own_rate_hint=own_rate_hint,
                             **spec.pbe_monitor_kwargs)
        lossy_decoders: dict = {}
        for cell_id in cells:
            callback = monitor.decoder_callback(cell_id)
            if fault_spec is not None and fault_spec.impairs_decoder:
                # LossyDecoder drops/forges per record in front of
                # the cell's decoder.
                lossy = LossyDecoder(monitor.decoders[cell_id],
                                     fault_spec)
                lossy_decoders[cell_id] = lossy
                callback = lossy.on_subframe
            network.attach_monitor(cell_id, callback)
        receiver = PbeClient(self.sim, spec.rnti, uplink, monitor,
                             **spec.pbe_client_kwargs)
        return receiver, monitor, lossy_decoders

    # ------------------------------------------------------------------
    def _checkpoint_owners(self) -> dict:
        """Stable key -> live object map for heap-event serialization.

        Every object whose bound methods may sit on the event heap gets
        a deterministic key; :mod:`repro.harness.checkpoint` encodes
        pending events as ``(owner_key, method_name, args)`` and
        re-binds them against this map on restore.  Built on demand —
        after a restore it reflects dynamically (re)materialized users.
        """
        owners: dict = {"exp": self, "net": self.network}
        # Links schedule nothing of their own: a packet crossing one is
        # link/ingress state, or an event bound to the link's sink.
        for i, link in enumerate(self._shared_links):
            owners[f"sharedsink:{i}"] = link.sink
        for handle in self.flows:
            rnti = handle.spec.rnti
            owners[f"sender:{rnti}"] = handle.sender
            owners[f"recv:{rnti}"] = handle.receiver
            owners[f"uplink:{rnti}"] = handle.uplink
            if handle.impaired_pipe is not None:
                owners[f"imp:{rnti}"] = handle.impaired_pipe
        for rnti, ingress in self.network._ingresses.items():
            owners[f"ingress:{rnti}"] = ingress
        for rnti, user in self.network._users.items():
            if user.ue is not None:
                owners[f"ue:{rnti}"] = user.ue
        return owners

    def run(self, checkpoint=None) -> list[FlowResult]:
        """Run to the scenario's end and summarize every flow.

        ``checkpoint`` (a :class:`repro.harness.checkpoint.
        CheckpointManager`) switches the single event-loop call to the
        snapshotting run loop; results are byte-identical either way.
        """
        end_us = us_from_seconds(self.scenario.duration_s)
        if checkpoint is None:
            self.sim.run(until_us=end_us)
        else:
            checkpoint.run_to(self, end_us)
        results = []
        for handle in self.flows:
            state_fractions = None
            if isinstance(handle.receiver, PbeClient):
                state_fractions = handle.receiver.state_fractions(
                    self.sim.now)
            sender_states = None
            if isinstance(handle.cc, PbeSender):
                sender_states = {
                    state: us / US_PER_S
                    for state, us in handle.cc.state_durations_us(
                        self.sim.now).items()}
            allocations = None
            user = self.network.user(handle.spec.rnti)
            if user.allocated_history is not None:
                allocations = list(user.allocated_history)
            results.append(FlowResult(
                spec=handle.spec,
                summary=summarize_flow(handle.stats, handle.spec.scheme),
                stats=handle.stats,
                sent_packets=handle.sender.sent_packets,
                lost_packets=handle.sender.lost_packets,
                ca_activations=self.network.ca.activations_for(
                    handle.spec.rnti),
                state_fractions=state_fractions,
                allocations=allocations,
                sender_states=sender_states,
                fault_stats=handle.fault_stats()))
        return results


def run_flow(scenario: Scenario, scheme: str,
             spec_overrides: Optional[dict] = None) -> FlowResult:
    """Convenience: one flow, full scenario duration."""
    experiment = Experiment(scenario)
    spec = FlowSpec(scheme=scheme, **(spec_overrides or {}))
    experiment.add_flow(spec)
    return experiment.run()[0]
