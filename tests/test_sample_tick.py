"""Smoke test of ``scripts/sample_tick.py``, the sampled profile.

One ``idle_3cc`` seed: the own-frame shares cover every sample once,
every sampled frame has a label and all three labels occur.  Counts
only; no timing is asserted.
"""

import importlib.util
import signal
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sample_tick.py"


def _load():
    spec = importlib.util.spec_from_file_location("sample_tick", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs signal.setitimer (POSIX)")
def test_one_idle_3cc_seed_shares_and_labels():
    sample_tick = _load()
    previous = signal.getsignal(signal.SIGPROF)
    result = sample_tick.profile("idle_3cc", [2])
    assert signal.getsignal(signal.SIGPROF) is previous
    assert result["samples"] > 0
    assert result["sent"] > result["ticks"] > 0
    assert sum(result["own"].values()) == pytest.approx(1.0)
    assert set(result["own"]) <= set(result["inclusive"])
    assert all(0 < share <= 1 for share in result["inclusive"].values())
    assert set(result["labels"]) == set(result["inclusive"])
    assert set(result["labels"].values()) == set(sample_tick.LABELS)
    # A dataclass-generated ``__init__`` is charged to its caller.
    assert not any(key.startswith("<string>")
                   for key in result["inclusive"])
    # The counting pass labels the wired hop per packet, the tick per
    # subframe and the run loop per burst.
    calls, sent, ticks = result["calls"], result["sent"], result["ticks"]
    for key, expected in (
            ("repro/net/link.py:Link.receive", "per-packet"),
            ("repro/cell/basestation.py:CellularNetwork._tick",
             "per-subframe"),
            ("repro/net/sim.py:Simulator.run", "per-burst")):
        assert sample_tick.label(calls[key], sent, ticks) == expected, key
