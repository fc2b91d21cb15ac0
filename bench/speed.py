"""The speed of a shared box, from a fixed reference computation.

The 2-core box the benchmark was written on runs in phases.  For minutes
at a time it runs up to twice as fast as at others, so raw wall times of
one program vary by 30% or more from run to run.  The benchmark
therefore samples the box's speed while it measures.  The sample is a
reference computation that does not use monofilt: exact ``Fraction`` row
reduction of ten fixed matrices, the kind of work ``qlinalg`` does.

A time ``t`` measured while the reference takes ``r`` seconds is
reported as ``t * (NOMINAL_S / r) ** ALPHA``: as it would read on a box
where the reference takes NOMINAL_S.  The verifiers slow down somewhat
less than the reference when the box does, and the median of the samples
is itself noisy, so ALPHA is below 1; RATIONALE.md gives the data behind
it.  A change to monofilt does not change ``r``, so it moves reported
times as it moves wall times.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010  # about the reference time on that box, in a fast phase
ALPHA = 0.8


def _matrices() -> list:
    rng = random.Random(20250901)
    return [[[Fraction(rng.randint(-60, 60), rng.choice((1, 1, 1, 2, 3)))
              for _ in range(d)] for _ in range(d)]
            for d in (4, 5, 6, 7, 8) for _ in range(2)]


_MATRICES = _matrices()


def _rref(rows: list) -> list:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for m in _MATRICES:
        _rref(m)
    return time.perf_counter() - t0


def factor(samples: list) -> float:
    """What a wall time measured alongside these reference samples is
    multiplied by (a rate is divided by it)."""
    return (NOMINAL_S / statistics.median(samples)) ** ALPHA
