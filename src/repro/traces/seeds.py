"""Deterministic seed derivation for trace processes.

Every stochastic object in a metro-scale scenario — thousands of
per-cell activity traces, per-user demand sources, fading channels and
mobility walks — must draw from an *independent* stream that is fully
determined by one top-level scenario seed.  Passing the same integer to
two ``default_rng`` calls produces the identical stream, and ad-hoc
arithmetic (``seed + i``) collides as soon as two call sites pick the
same offset.  :func:`derived_seed` avoids both failure modes by hashing
the seed together with a string scope path; the fault injectors'
streams (``repro.faults.spec.derived_rng``) are seeded by it too.
"""

from __future__ import annotations

import hashlib


def derived_seed(seed: int, *scope: object) -> int:
    """A 64-bit seed for the independent stream named by ``scope``.

    ``derived_seed(7, "cell", 12, "fading")`` and
    ``derived_seed(7, "cell", 12, "walk")`` are unrelated streams even
    though they share the scenario seed; the same arguments always
    return the same value.
    """
    key = ":".join(str(part) for part in (seed, *scope))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
