"""The analytic FIFO link against the event-driven link it replaced.

``tests/reference_link.py`` is the old ``Link`` verbatim: one
``_finish`` event per serialization and one ``sink.receive`` event per
propagation.  The analytic link must put the same packets at the sink
at the same instants in the same order, and count the same forwards and
drops — except where an arrival coincides to the microsecond with a
serialization end while the queue is exactly full.  The old code left
that order to heap sequence numbers; the analytic link fixes it (tie
rule 1: the slot is free).  Driving the reference with completions
ahead of same-instant arrivals makes it follow that rule too, so the
comparison covers every sequence.
"""

from hypothesis import example, given, settings, strategies as st

from repro.net.link import Link, PacketSink
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import transmission_time_us

from .reference_link import Link as ReferenceLink


class StampedSink(PacketSink):
    """Takes packets ahead of time; records the stamped arrival."""

    def receive_at(self, packet, arrival_us):
        self.arrival_us.append(arrival_us)
        self.packets.append(packet)
        return True


def _drive(link_cls, config, arrivals, completions_first=False,
           sink_cls=PacketSink, probes=()):
    """Offer ``arrivals`` = ``[(time_us, flow_id, size_bits)]`` to a link.

    Returns ``(deliveries, forwarded, dropped, probed)`` with
    ``deliveries`` = ``[(arrival_us, flow_id, seq)]`` in sink order and
    ``probed`` the ``(forwarded, queue_depth)`` read at each probe time.
    """
    sim = Simulator()
    sink = sink_cls(sim)
    link = link_cls(sim, sink, **config)

    def offer(packet):
        if completions_first:
            # Re-scheduling at the arrival instant puts the packet
            # behind every ``_finish`` already queued for that instant.
            sim.schedule(0, link.receive, packet)
        else:
            link.receive(packet)

    for seq, (time_us, flow_id, size_bits) in enumerate(arrivals):
        sim.schedule_at(time_us, offer, Packet(flow_id, seq, size_bits))
    probed = []
    for time_us in probes:
        sim.run(until_us=time_us)
        probed.append((link.forwarded, link.queue_depth))
    sim.run(until_us=10**9)  # past every stamped arrival, events or not
    deliveries = [(arrival_us, p.flow_id, p.seq)
                  for arrival_us, p in zip(sink.arrival_us, sink.packets)]
    return deliveries, link.forwarded, link.dropped, probed


@st.composite
def _workloads(draw):
    config = {
        "rate_bps": draw(st.sampled_from([1e6, 3.7e6, 12e6, 48e6, 1e9])),
        "delay_us": draw(st.sampled_from([0, 1, 999, 5_000, 18_000])),
        "queue_packets": draw(st.integers(1, 12)),
    }
    sizes_bits = [400, 4_000, 12_000]
    # Gaps that are whole serialization times keep a sender in step with
    # the link, so arrivals land on completion instants (the tie case).
    in_step = [0] + [transmission_time_us(bits, config["rate_bps"])
                     for bits in sizes_bits]
    gaps_us = st.one_of(st.integers(0, 3_000), st.sampled_from(in_step))
    n_senders = draw(st.integers(1, 3))
    arrivals = []
    for flow_id in range(1, n_senders + 1):
        gaps = draw(st.lists(gaps_us, min_size=1, max_size=40))
        sizes = draw(st.lists(st.sampled_from(sizes_bits),
                              min_size=len(gaps), max_size=len(gaps)))
        now = 0
        for gap, size in zip(gaps, sizes):
            now += gap
            arrivals.append((now, flow_id, size))
    # Interleave the senders by time (stable: equal instants keep
    # sender order, as they would on a real heap).
    arrivals.sort(key=lambda a: a[0])
    return config, arrivals


@settings(max_examples=300, deadline=None)
@given(_workloads())
def test_analytic_link_matches_reference(workload):
    config, arrivals = workload
    plain = _drive(ReferenceLink, config, arrivals)
    rule1 = _drive(ReferenceLink, config, arrivals, completions_first=True)
    analytic = _drive(Link, config, arrivals)
    stamped = _drive(Link, config, arrivals, sink_cls=StampedSink)

    # Every sequence: the reference with tie rule 1 imposed.
    assert analytic == rule1
    assert stamped == rule1
    # No arrival coincides with a serialization end: the reference as
    # it ran in production, whatever its heap order.
    ends = {arrival_us - config["delay_us"] for arrival_us, _, _ in plain[0]}
    if not ends & {time_us for time_us, _, _ in arrivals}:
        assert analytic == plain


#: A full one-packet queue meeting arrivals on serialization ends:
#: forwarded/dropped read (5, 16) under tie rule 1, (4, 17) on the old
#: link's own heap order.  Doubling the instants does not remove it.
_FULL_QUEUE_TIE = (
    {"rate_bps": 1e6, "delay_us": 0, "queue_packets": 1},
    [(0, 1, 400)] * 5 + [(0, 2, 400)] + [(0, 3, 400)] * 5
    + [(12_000, 1, 4_000), (12_000, 3, 4_000)] + [(16_000, 1, 400)] * 8)


@settings(max_examples=100, deadline=None)
@given(_workloads(), st.lists(st.integers(0, 60_000), max_size=8))
@example(_FULL_QUEUE_TIE, [])
def test_counters_match_reference_mid_flight(workload, probes):
    """``forwarded``/``queue_depth`` agree at any instant, not just at rest."""
    config, arrivals = workload
    # Probe between microseconds' worth of events: odd instants only,
    # arrivals and (integer-µs) completions pushed to even ones.
    config = dict(config, rate_bps=1e6)       # even tx times for even sizes
    arrivals = [(2 * t, f, s) for t, f, s in arrivals]
    probes = sorted(2 * t + 1 for t in probes)
    # Even instants still tie (an arrival on a serialization end with
    # the queue full), so the reference runs completions-first: rule 1.
    reference = _drive(ReferenceLink, config, arrivals,
                       completions_first=True, probes=probes)
    assert _drive(Link, config, arrivals, probes=probes) == reference


def test_tie_rule_serialization_end_frees_the_slot():
    """Rule 1, spelled out: queue of 1, arrival at the completion instant."""
    config = {"rate_bps": 12e6, "delay_us": 0, "queue_packets": 1}
    # 1 ms each: #0 serializes over [0, 1000), #1 waits; #2 arrives at
    # exactly 1000, when #0 ends and #1 leaves the queue for the wire.
    arrivals = [(0, 1, 12_000), (0, 1, 12_000), (1_000, 1, 12_000)]
    deliveries, forwarded, dropped, _ = _drive(Link, config, arrivals)
    assert [seq for _, _, seq in deliveries] == [0, 1, 2]
    assert [t for t, _, _ in deliveries] == [1_000, 2_000, 3_000]
    assert (forwarded, dropped) == (3, 0)
    # The old link, offered the arrival ahead of the completion event,
    # saw a full queue — the order it left to heap sequence numbers.
    assert _drive(ReferenceLink, config, arrivals)[2] == 1
    assert _drive(ReferenceLink, config, arrivals,
                  completions_first=True)[2] == 0
    # One microsecond earlier the slot is still taken, for both.
    early = arrivals[:2] + [(999, 1, 12_000)]
    assert _drive(Link, config, early)[2] == 1
    assert _drive(ReferenceLink, config, early)[2] == 1


def test_out_of_order_handover_falls_back_to_an_event():
    """A sink may refuse a stamped packet; it then gets the event."""
    sim = Simulator()

    class Refusing(PacketSink):
        def receive_at(self, packet, arrival_us):
            return False

    sink = Refusing(sim)
    link = Link(sim, sink, rate_bps=12e6, delay_us=2_000)
    link.receive(Packet(1, 0, 12_000))
    assert not sink.packets
    sim.run()
    assert sink.arrival_us == [3_000]
