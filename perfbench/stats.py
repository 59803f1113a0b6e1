"""Order statistics shared by the benchmark runner and the comparison tool."""

from __future__ import annotations

import statistics

# The tail percentile is the highest one with at least this many samples
# beyond it, so that a single outlier cannot set it.
TAIL_MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """Return (value, percentile, samples beyond) of the latency tail.

    The value is the sample with TAIL_MIN_BEYOND samples above it: the
    highest percentile (nearest rank) that keeps ten samples beyond it. With
    few samples that percentile is low, even below the median; it is
    recorded next to the value. With TAIL_MIN_BEYOND samples or fewer no
    percentile qualifies and the smallest sample is returned.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, n - 1 - TAIL_MIN_BEYOND)
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
