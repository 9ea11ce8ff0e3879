"""Tests for DCI messages and subframe records."""

import pytest

from repro.phy.dci import DciMessage, SubframeRecord


def _msg(rnti, prbs, subframe=0, cell=0, **kw):
    return DciMessage(subframe, cell, rnti, prbs, mcs=10,
                      spatial_streams=1, tbs_bits=prbs * 500, **kw)


def test_message_validation():
    with pytest.raises(ValueError):
        _msg(1, -1)
    with pytest.raises(ValueError):
        DciMessage(0, 0, 1, 4, 10, 1, tbs_bits=-5)


def test_idle_prbs_accounting():
    rec = SubframeRecord(0, 0, total_prbs=100)
    rec.messages.append(_msg(1, 30))
    rec.messages.append(_msg(2, 50))
    assert rec.allocated_prbs == 80
    assert rec.idle_prbs == 20


def test_over_allocation_raises():
    rec = SubframeRecord(0, 0, total_prbs=10)
    rec.messages.append(_msg(1, 20))
    with pytest.raises(ValueError, match="over-allocated"):
        rec.idle_prbs


def test_prbs_for_sums_per_user():
    rec = SubframeRecord(0, 0, total_prbs=100)
    rec.messages.append(_msg(1, 10))
    rec.messages.append(_msg(1, 5, new_data=False))  # its retransmission
    rec.messages.append(_msg(2, 7))
    assert rec.prbs_for(1) == 15
    assert rec.prbs_for(2) == 7
    assert rec.prbs_for(99) == 0


def test_active_rntis():
    rec = SubframeRecord(0, 0, total_prbs=100)
    rec.messages.append(_msg(1, 10))
    rec.messages.append(_msg(2, 0))
    assert rec.active_rntis() == {1}


def test_messages_are_immutable():
    msg = _msg(1, 10)
    with pytest.raises(AttributeError):
        msg.n_prbs = 99


def test_message_equality_hash_and_repr():
    a, b = _msg(1, 10, subframe=3), _msg(1, 10, subframe=3)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != _msg(1, 11, subframe=3)
    assert a != _msg(1, 10, subframe=3, new_data=False)
    assert len({a, b, _msg(2, 10, subframe=3)}) == 2
    assert repr(a) == (
        "DciMessage(subframe=3, cell_id=0, rnti=1, n_prbs=10, mcs=10, "
        "spatial_streams=1, tbs_bits=5000, new_data=True, "
        "is_control=False)")


def test_message_defaults_and_field_order():
    msg = DciMessage(7, 2, 61, 4, 10, 1, 2_000)
    assert msg.new_data is True and msg.is_control is False
    assert msg._fields == ("subframe", "cell_id", "rnti", "n_prbs", "mcs",
                           "spatial_streams", "tbs_bits", "new_data",
                           "is_control")
    assert DciMessage(7, 2, 61, 4, 10, 1, 2_000, False, True).is_control


@pytest.mark.parametrize("field", ["n_prbs", "tbs_bits"])
def test_negative_counts_are_rejected_however_they_are_passed(field):
    values = dict(subframe=0, cell_id=0, rnti=1, n_prbs=4, mcs=10,
                  spatial_streams=1, tbs_bits=2_000)
    values[field] = -1
    with pytest.raises(ValueError):
        DciMessage(**values)
    with pytest.raises(ValueError):
        DciMessage(*values.values())


def test_message_has_no_instance_dict_and_pickles_with_aliasing():
    import pickle

    msg = _msg(1, 10)
    assert not hasattr(msg, "__dict__")
    with pytest.raises(AttributeError):
        msg.extra = 1
    first, second = pickle.loads(pickle.dumps([msg, msg], protocol=4))
    assert first == msg and first is second and type(first) is DciMessage
