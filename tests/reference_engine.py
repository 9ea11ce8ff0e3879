"""The per-subframe, per-ACK engine the batched one replaced, as an oracle.

Built from outside, not a copy of the tick: subclasses switch off each
thing the engine infers it may skip or batch.  Every configured cell
ticks every subframe, with its users filtered from scratch; every
channel is sampled per subframe; the CA manager observes every user;
the uplink schedules one ``sink.receive`` event per ACK; the UE hands
packets over one at a time.  (The monitor needs no stand-in: the
engine's per-record ingest is the one the reference always ran.)
Nothing under ``src/`` imports this module; the differential tests
(``test_batch_engine``, ``test_tick_rosters``, ``test_cc_block``,
``test_transport_batch``, ``test_metro``) require byte-identical
results from it, and ``test_reference_engine`` checks that it really
takes the slow paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.cell.basestation import CellularNetwork
from repro.harness import fingerprint, runner
from repro.metro import shard
from repro.net.link import BatchingPipe


class ReferenceNetwork(CellularNetwork):
    """No dormant cells, no channel block cache, no CA shortcut."""

    def _register_channel(self, user, channel) -> None:
        super()._register_channel(user, channel)
        user.block_safe = False

    def _build_rosters(self, subframe):
        # ``_live_cells`` stays None: rebuilt every tick, so the oracle
        # does not depend on the engine's invalidation points.
        live = list(self._prbs_by_cell.items())
        users = self._user_list = list(self._users.values())
        self._cell_roster = {
            cell_id: [u for u in users if cell_id in u.active_cell_set]
            for cell_id, _ in live}
        self._exo_users = [u for u in users if u.demand_source is not None]
        self._ca_users = users
        return live


class ReferencePipe(BatchingPipe):
    """One ``sink.receive`` event per ACK; no :class:`AckBatch`."""

    def _flush(self) -> None:
        batch, self._held = self._held, []
        self.batches += 1
        self.forwarded += len(batch)
        for packet in batch:
            self.sim.schedule(self.delay_us, self.sink.receive, packet)


_PARTS = {"CellularNetwork": ReferenceNetwork, "BatchingPipe": ReferencePipe}


class ReferenceExperiment(runner.Experiment):
    """An :class:`Experiment` wired from the reference parts, whose UEs
    deliver per packet (``on_packet`` only)."""

    def __init__(self, scenario, perf_counters=None) -> None:
        with mock.patch.multiple(runner, **_PARTS):
            super().__init__(scenario, perf_counters)

    def add_flow(self, spec):
        with mock.patch.multiple(runner, **_PARTS):
            handle = super().add_flow(spec)
        self.network._users[spec.rnti].ue.on_packet_block = None
        return handle


@contextmanager
def reference_engine():
    """Within the block ``run_fingerprint`` and the ``repro.metro``
    shard builders run :class:`ReferenceExperiment`."""
    with mock.patch.object(fingerprint, "Experiment", ReferenceExperiment), \
            mock.patch.object(shard, "Experiment", ReferenceExperiment):
        yield
