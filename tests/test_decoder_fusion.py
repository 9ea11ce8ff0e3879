"""Tests for the emulated control-channel decoder and message fusion.

Message fusion (§5) is not a stage of its own: the monitor folds each
decoded record into its cell's estimator as it arrives and closes a
subframe's bookkeeping once every configured cell has reported it (or a
later subframe's record, or a report, comes first).
"""

import pytest

from repro.monitor.decoder import ControlChannelDecoder
from repro.monitor.pbe import PbeMonitor
from repro.phy.dci import DciMessage, SubframeRecord


def _record(subframe, cell=0, n_msgs=2):
    rec = SubframeRecord(subframe, cell, 100)
    for i in range(n_msgs):
        rec.messages.append(DciMessage(subframe, cell, 10 + i, 4, 10, 1,
                                       tbs_bits=2_000))
    return rec


def _monitor(cells):
    return PbeMonitor(10, {cell: 100 for cell in cells},
                      primary_cell=cells[0],
                      own_rate_hint=lambda: (500, 1e-6))


def _deliver(monitor, subframe, cell):
    monitor.decoder_callback(cell)(_record(subframe, cell=cell))


def test_decoder_forwards_immediately_by_default():
    got = []
    dec = ControlChannelDecoder(0, got.append)
    dec.on_subframe(_record(0))
    assert len(got) == 1
    assert dec.subframes_decoded == 1
    assert dec.messages_decoded == 2


def test_decoder_rejects_wrong_cell():
    dec = ControlChannelDecoder(0, lambda r: None)
    with pytest.raises(ValueError):
        dec.on_subframe(_record(0, cell=3))


def test_decoder_search_cost_model():
    dec = ControlChannelDecoder(0, lambda r: None)
    dec.on_subframe(_record(0, n_msgs=3))
    # 3 occupied positions x 10 formats + 13 empty looks.
    assert dec.search_attempts == 3 * 10 + 13
    assert dec.messages_decoded / dec.subframes_decoded == 3.0


def test_fusion_waits_for_all_cells():
    m = _monitor([0, 1])
    _deliver(m, 5, cell=0)
    assert m.estimators[0].last_subframe == 5   # folded on arrival
    assert m.last_subframe == -1                # subframe 5 still open
    _deliver(m, 5, cell=1)
    assert m.last_subframe == 5
    assert m._pending == 0


def test_fusion_single_cell_passthrough():
    m = _monitor([0])
    _deliver(m, 0, cell=0)
    assert m.last_subframe == 0
    _deliver(m, 1, cell=0)
    assert m.last_subframe == 1
    assert m._pending == 0


def test_fusion_flushes_stale_incomplete_subframes():
    m = _monitor([0, 1])
    _deliver(m, 0, cell=0)   # cell 1 never reports sf 0
    _deliver(m, 1, cell=0)   # a later subframe closes sf 0
    assert m.last_subframe == 0
    _deliver(m, 2, cell=0)
    assert m.last_subframe == 1
    assert m.gap_events == 0
    assert m.estimators[1].last_subframe == -1


def test_fusion_rejects_unsubscribed_cell():
    m = _monitor([0])
    with pytest.raises(KeyError):
        m.decoder_callback(7)
    with pytest.raises(ValueError):
        m.decoder_callback(0)(_record(0, cell=7))


def test_fusion_requires_cells():
    with pytest.raises(ValueError):
        PbeMonitor(10, {}, primary_cell=0,
                   own_rate_hint=lambda: (500, 1e-6))


def test_fusion_flush_emits_residual_subframes_in_order():
    m = _monitor([0, 1])
    closed = []
    _deliver(m, 1, cell=0)
    _deliver(m, 1, cell=1)   # sf 1 complete -> closed
    closed.append(m.last_subframe)
    _deliver(m, 2, cell=0)
    closed.append(m.report(40).subframe)   # the report closes sf 2
    _deliver(m, 3, cell=1)
    closed.append(m.report(40).subframe)
    assert closed == [1, 2, 3]
    assert m.gap_events == 0
