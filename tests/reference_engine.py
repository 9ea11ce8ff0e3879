"""The per-subframe, per-ACK engine the batched one replaced, as an oracle.

Built from outside, not a copy of the tick: subclasses switch off each
thing the engine infers it may skip or batch.  Every configured cell
ticks every subframe, with its users filtered from scratch; every
channel is sampled per subframe; the CA manager observes every user;
the uplink schedules one ``sink.receive`` event per ACK; the sender
folds, and the client acknowledges, one packet at a time through the
per-packet bodies of ``tests/reference_transport.py``.  (The monitor
needs no stand-in: the engine's per-record ingest is the one the
reference always ran.)
Nothing under ``src/`` imports this module; the differential tests
(``test_batch_engine``, ``test_tick_rosters``, ``test_cc_block``,
``test_transport_batch``, ``test_metro``) require byte-identical
results from it, and ``test_reference_engine`` checks that it really
takes the slow paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.cell.basestation import (MIMO_SINR_THRESHOLD_DB, CellularNetwork,
                                    _User)
from repro.harness import fingerprint, runner
from repro.metro import shard
from repro.net.link import BatchingPipe
from repro.phy.error import sinr_to_ber
from repro.phy.mcs import bits_per_prb, sinr_to_mcs

from .reference_transport import (ReferenceAckingReceiver,
                                  ReferenceAckSender, ReferencePbeClient)


class ReferenceUser(_User):
    """Samples its channel once per subframe through the scalar maps:
    every block is one subframe long, filled by the per-subframe
    ``refresh_channel`` the block cache replaced (kept verbatim)."""

    __slots__ = ()

    def refresh_channel(self, now_us: int,
                        cqi_delay_subframes: int = 0) -> None:
        """Sample the channel; pick MCS from the (possibly stale) CQI.

        With ``cqi_delay_subframes > 0`` the link adaptation uses the
        SINR the UE reported that many subframes ago — the real
        CQI-reporting loop — while transport-block errors are always
        drawn at the *current* channel, so fast fades genuinely hurt.
        """
        self.sinr_db = self.channel.sinr_db(now_us)
        if cqi_delay_subframes > 0:
            self._sinr_history.append(self.sinr_db)
            reported = self._sinr_history[0]
        else:
            reported = self.sinr_db
        self.current_mcs = sinr_to_mcs(reported, self.category.max_mcs)
        if reported >= MIMO_SINR_THRESHOLD_DB:
            self.current_streams = self.category.max_streams
        else:
            self.current_streams = 1
        self.rate_now = bits_per_prb(self.current_mcs,
                                     self.current_streams)
        self.ber_now = sinr_to_ber(self.sinr_db)

    def fill_channel_block(self, now_us, cqi_delay_subframes,
                           n_subframes=1) -> None:
        self.refresh_channel(now_us, cqi_delay_subframes)
        self._blk_idx, self._blk_len = 0, 1

    def refresh_from_block(self, slot) -> None:
        # refresh_channel already set the state; ``_blk_sinr`` stays
        # empty, so a channel swap adds nothing to the history.
        self._blk_idx = 1


class ReferenceNetwork(CellularNetwork):
    """No dormant cells, no channel block cache, no CA shortcut."""

    def _make_user(self, *args, **kwargs):
        user = super()._make_user(*args, **kwargs)
        user.__class__ = ReferenceUser
        return user

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
    """One ``sink.receive`` event per ACK, never a burst."""

    def _flush(self) -> None:
        batch, self._held = self._held, []
        self.batches += 1
        self.forwarded += len(batch)
        for packet in batch:
            self.sim.schedule(self.delay_us, self.sink.receive, packet)


_PARTS = {"CellularNetwork": ReferenceNetwork, "BatchingPipe": ReferencePipe,
          "Sender": ReferenceAckSender,
          "AckingReceiver": ReferenceAckingReceiver,
          "PbeClient": ReferencePbeClient}


class ReferenceExperiment(runner.Experiment):
    """An :class:`Experiment` wired from the reference parts: its UEs'
    bursts reach the receivers' per-packet loops."""

    def __init__(self, scenario, perf_counters=None) -> None:
        with mock.patch.multiple(runner, **_PARTS):
            super().__init__(scenario, perf_counters)

    def add_flow(self, spec):
        with mock.patch.multiple(runner, **_PARTS):
            return super().add_flow(spec)


@contextmanager
def reference_engine():
    """Within the block ``run_fingerprint`` and the ``repro.metro``
    shard builders run :class:`ReferenceExperiment`."""
    with mock.patch.object(fingerprint, "Experiment", ReferenceExperiment), \
            mock.patch.object(shard, "Experiment", ReferenceExperiment):
        yield
