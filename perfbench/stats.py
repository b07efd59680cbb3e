"""Summary arithmetic for the benchmark: percentiles and span self times."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int, candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile with at least ``MIN_BEYOND`` of n samples beyond it.

    Exact rational arithmetic: 10000 samples support p99.9 (10 beyond),
    which float arithmetic would round away.
    """
    for p in sorted(candidates, reverse=True):
        if n * (100 - Fraction(str(p))) / 100 >= MIN_BEYOND:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Linearly interpolated p-th percentile; needs enough samples for p."""
    supported = tail_percentile(len(samples), candidates=(p,))
    if p > 50 and supported is None:
        raise ValueError(f"{len(samples)} samples leave fewer than {MIN_BEYOND} beyond p{p}")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def median(samples) -> float:
    if len(samples) == 0:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of (name, start, end, parent) with parent the
    index of the enclosing span or -1.  Spans come from one thread, so
    children nest inside their parent and do not overlap each other.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
