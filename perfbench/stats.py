"""Percentiles and the sample-count rule for reported tails.

A tail percentile is reported only with the number of samples that lie
beyond it; the rule is that a percentile is trustworthy once at least
``MIN_BEYOND`` samples lie beyond it.  Percentiles interpolate linearly
between order statistics (numpy's default), so "beyond" means ranked
strictly above the interpolation position.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
LEVELS = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p: float) -> float:
    """The p-th percentile (0..100) of ``values`` by linear interpolation."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def beyond(n: int, p: float) -> int:
    """Samples of ``n`` ranked strictly above the p-th percentile position."""
    if n < 1:
        return 0
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def samples_needed(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count with ``min_beyond`` samples beyond the p-th percentile."""
    n = 1
    while beyond(n, p) < min_beyond:
        n += 1
    return n


def tail_level(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest percentile in ``LEVELS`` with enough samples beyond it."""
    for p in LEVELS:
        if beyond(n, p) >= min_beyond:
            return p
    return None


def median(values) -> float:
    return percentile(values, 50.0)
