"""System-level invariants under randomized load (property tests)."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cell.basestation import CellularNetwork, DemandSource
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.net.units import MSS_BITS
from repro.phy.carrier import CarrierConfig
from repro.phy.channel import StaticChannel


class RandomDemand(DemandSource):
    def __init__(self, seed, peak_bits):
        self._rng = np.random.default_rng(seed)
        self.peak_bits = peak_bits

    def bits(self, subframe):
        return int(self._rng.integers(0, self.peak_bits))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1_000, max_value=200_000),
       st.integers(min_value=0, max_value=10_000))
def test_scheduler_never_overallocates_cells(n_users, peak_bits, seed):
    sim = Simulator()
    net = CellularNetwork(
        sim, [CarrierConfig(0, 10.0), CarrierConfig(1, 5.0)],
        control_arrivals_per_subframe=0.5, seed=seed)
    records = {0: [], 1: []}
    for cell in (0, 1):
        net.attach_monitor(cell, records[cell].append)
    for i in range(n_users):
        net.add_exogenous_user(
            10 + i, [0, 1], StaticChannel(10.0 + 3 * i, seed=i),
            RandomDemand(seed + i, peak_bits))
    net.start()
    sim.run(until_us=300_000)
    for cell, recs in records.items():
        total = net.carriers[cell].total_prbs
        for record in recs:
            assert 0 <= record.idle_prbs <= total  # raises if over


def test_packet_conservation_under_overload():
    """enqueued = delivered + queue-dropped + harq-lost + in flight."""
    sim = Simulator()
    net = CellularNetwork(sim, [CarrierConfig(0, 5.0)], seed=3)
    delivered = []
    ue = net.add_user(1, [0], StaticChannel(3.0, seed=1),
                      on_packet_block=delivered.extend, queue_packets=100)
    net.start()
    seq = itertools.count()

    def send():
        p = Packet(1, next(seq), MSS_BITS, sent_time_us=sim.now)
        net.ingress(1).receive(p)
        if sim.now < 2_000_000:
            sim.schedule(300, send)  # 40 Mbit/s into a ~5 Mbit/s cell

    sim.schedule(0, send)
    sim.run(until_us=2_500_000)
    user = net.user(1)
    accounted = (len(delivered) + user.queue.dropped + ue.lost_packets
                 + len(user.queue))
    total_sent = next(seq)
    # Allow a handful of packets still in HARQ/reordering flight.
    assert abs(total_sent - accounted) <= 30


def test_packet_conservation_counts_traffic_for_a_detached_user():
    """... + arrived-for-a-detached-RNTI, with the wire in the path."""
    sim = Simulator()
    net = CellularNetwork(sim, [CarrierConfig(0, 5.0)], seed=3)
    delivered = []
    ue = net.add_user(1, [0], StaticChannel(3.0, seed=1),
                      on_packet_block=delivered.extend, queue_packets=100)
    net.start()
    link = Link(sim, net.ingress(1), rate_bps=1e9, delay_us=18_000)
    seq = itertools.count()

    def send():
        link.receive(Packet(1, next(seq), MSS_BITS, sent_time_us=sim.now))
        if sim.now < 1_000_000:
            sim.schedule(300, send)

    sim.schedule(0, send)
    sim.run(until_us=500_000)
    user = net.user(1)
    net.remove_user(1)
    sim.run(until_us=1_200_000)
    assert net.unrouted_packets > 1_000 and not net.ingress(1).wire
    accounted = (len(delivered) + user.queue.dropped + ue.lost_packets
                 + len(user.queue) + net.unrouted_packets + link.dropped)
    assert abs(next(seq) - accounted) <= 30


def test_delay_never_below_propagation_floor():
    from repro.harness import Scenario, run_flow
    scenario = Scenario(name="floor", aggregated_cells=1,
                        carriers=[CarrierConfig(0, 10.0)],
                        mean_sinr_db=15.0, duration_s=2.0, seed=8)
    result = run_flow(scenario, "pbe")
    # One-way floor: 18 ms wired + >=1 ms subframe latency.
    assert min(result.stats.delay_us) >= 19_000


def test_delay_bounded_by_harq_chain_in_uncongested_cell():
    from repro.harness import Scenario, run_flow
    scenario = Scenario(name="bound", aggregated_cells=1,
                        carriers=[CarrierConfig(0, 10.0)],
                        mean_sinr_db=15.0, duration_s=2.0, seed=8)
    result = run_flow(scenario, "cbr",
                      spec_overrides={"cc_kwargs": {"rate_bps": 10e6}})
    floor = min(result.stats.delay_us)
    # Light load: nothing should exceed floor + 3 chained retx + jitter.
    assert max(result.stats.delay_us) <= floor + 27_000


def test_total_goodput_bounded_by_physical_capacity():
    from repro.harness import Experiment, FlowSpec, Scenario
    scenario = Scenario(name="cap", aggregated_cells=1,
                        carriers=[CarrierConfig(0, 10.0)],
                        mean_sinr_db=20.0, fading_std_db=0.0,
                        duration_s=2.0, seed=4)
    exp = Experiment(scenario)
    for i in range(3):
        exp.add_flow(FlowSpec(scheme="cubic", rnti=100 + i))
    results = exp.run()
    total = sum(r.summary.average_throughput_bps for r in results)
    # 50 PRBs x bits_per_prb(14, 2) = physical ceiling.
    from repro.phy.mcs import bits_per_prb
    ceiling = 50 * bits_per_prb(14, 2) * 1_000
    assert total < ceiling
