#!/usr/bin/env python3
"""Sampled CPU profile of one benchmark workload, frame by frame.

    python3 scripts/sample_tick.py [--workload idle_3cc] [--seeds 2-13]

Builds a simulation workload of ``bench/workloads.py`` in this process
once per seed and, while each one runs, samples the process's own CPU
time: ``signal.setitimer(ITIMER_PROF)`` asks for a ``SIGPROF`` every
0.5 ms of it (a kernel may deliver them coarser, one per tick of its
clock; the first line prints the rate it got), and each one records the
Python stack that was executing.  It prints each frame's
*own* share (samples with it innermost, the C calls it made included)
and its *inclusive* share (samples with it anywhere on the stack).  A
frame a dataclass generates (``<string>:__init__``) is charged to its
caller, where the object is built.

The label column comes from one ``sys.setprofile`` pass over the first
seed that counts each frame's calls: *per-packet* when it is called at
least once per two data packets sent, else *per-subframe* when at least
once per two subframe ticks, else *per-burst*.

It imports ``bench/workloads.py`` and changes nothing under ``bench/``.
Its shares move with the box and the interpreter and back no claim:
speed is measured by ``bench/run.py`` and judged by ``bench/compare.py``
(``bench/run.py --trace 1`` gives the per-layer split by span).
"""

from __future__ import annotations

import argparse
import collections
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: CPU seconds between two samples.
INTERVAL_S = 0.0005
LABELS = ("per-packet", "per-subframe", "per-burst")
#: Frames printed per table.
ROWS = 30


def workloads() -> dict:
    """``bench/workloads.py``'s simulation workloads, by name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return {name: w for name, w in WORKLOADS.items()
            if getattr(w, "traces_layers", False)}


def frame_key(code) -> str:
    """``path/under/src.py:Qualified.name`` for one code object."""
    path = Path(code.co_filename)
    try:
        where = path.resolve().relative_to(SRC).as_posix()
    except ValueError:
        where = path.name
    return f"{where}:{getattr(code, 'co_qualname', code.co_name)}"


def sample_stacks(workload, seeds: list) -> tuple:
    """Stacks (innermost code first, up to ``workload.run``) sampled
    while each seed's run runs, and the CPU seconds the runs took."""
    stacks: collections.Counter = collections.Counter()
    here = sys._getframe()
    cpu_s = 0.0

    def on_sample(signum, frame):
        codes = []
        while frame is not None and frame is not here:
            codes.append(frame.f_code)
            frame = frame.f_back
        if codes:  # empty: it landed here, just before or after the run
            stacks[tuple(codes)] += 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for seed in seeds:
                built = workload.build(seed, Path(workdir))
                try:
                    start = time.process_time()
                    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S,
                                     INTERVAL_S)
                    try:
                        workload.run(built)
                    finally:
                        signal.setitimer(signal.ITIMER_PROF, 0)
                        cpu_s += time.process_time() - start
                finally:
                    workload.dispose(built)
    finally:
        signal.signal(signal.SIGPROF, previous)
    return stacks, cpu_s


def count_calls(workload, seed: int) -> tuple:
    """Python calls per frame over one run: ``(calls, sent, ticks)``."""
    calls: collections.Counter = collections.Counter()

    def on_event(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    with tempfile.TemporaryDirectory() as workdir:
        built = workload.build(seed, Path(workdir))
        try:
            previous = sys.getprofile()
            sys.setprofile(on_event)
            try:
                workload.run(built)
            finally:
                sys.setprofile(previous)
            sent = sum(h.sender.sent_packets for h in built.handles)
            ticks = built.experiment.network.subframe
        finally:
            workload.dispose(built)
    by_key: collections.Counter = collections.Counter()
    for code, n in calls.items():
        by_key[frame_key(code)] += n
    return by_key, sent, ticks


def label(calls: int, sent: int, ticks: int) -> str:
    if 2 * calls >= sent:
        return "per-packet"
    if 2 * calls >= ticks:
        return "per-subframe"
    return "per-burst"


def profile(name: str, seeds: list) -> dict:
    """Own and inclusive shares per frame, each frame's label and the
    counting pass's totals."""
    workload = workloads()[name]
    calls, sent, ticks = count_calls(workload, seeds[0])
    stacks, cpu_s = sample_stacks(workload, seeds)
    n = sum(stacks.values())
    own: collections.Counter = collections.Counter()
    inclusive: collections.Counter = collections.Counter()
    for codes, count in stacks.items():
        # A dataclass's generated ``__init__`` lives in "<string>".
        kept = [code for code in codes if code.co_filename != "<string>"]
        own[frame_key(kept[0])] += count
        for key in {frame_key(code) for code in kept}:
            inclusive[key] += count
    return {
        "samples": n, "cpu_s": cpu_s, "sent": sent, "ticks": ticks,
        "calls": calls,
        "own": {key: count / n for key, count in own.items()},
        "inclusive": {key: count / n for key, count in inclusive.items()},
        "labels": {key: label(calls[key], sent, ticks)
                   for key in inclusive},
    }


def parse_seeds(text: str) -> list:
    """``"2-13"`` or ``"2,5,7"``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def print_profile(name: str, seeds: list, result: dict) -> None:
    own, inclusive = result["own"], result["inclusive"]
    labels, calls, sent = result["labels"], result["calls"], result["sent"]
    n, cpu_s = result["samples"], result["cpu_s"]
    print(f"{name}, seeds {seeds[0]}-{seeds[-1]}: {n} samples over "
          f"{cpu_s:.2f} s CPU (one per {cpu_s / max(n, 1) * 1e3:.2f} ms; "
          f"{INTERVAL_S * 1e3:g} ms asked); counting pass (seed "
          f"{seeds[0]}): {sent} packets sent, {result['ticks']} ticks")
    by_label = collections.Counter()
    for key, share in own.items():
        by_label[labels[key]] += share
    print("own share by label: " + ", ".join(
        f"{lab} {by_label[lab]:.3f}" for lab in LABELS))
    for title, order in (("own", own), ("inclusive", inclusive)):
        print(f"\nby {title} share:")
        print(f"{'own':>6} {'incl':>6} {'calls/pkt':>9}  {'label':<12} frame")
        for key in sorted(order, key=order.get, reverse=True)[:ROWS]:
            print(f"{own.get(key, 0.0):6.3f} {inclusive[key]:6.3f} "
                  f"{calls[key] / max(sent, 1):9.3f}  {labels[key]:<12} "
                  f"{key}")


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="idle_3cc",
                        choices=sorted(workloads()))
    parser.add_argument("--seeds", default="2-13", type=parse_seeds)
    args = parser.parse_args(argv)
    print_profile(args.workload, args.seeds,
                  profile(args.workload, args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
