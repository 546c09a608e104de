"""Summary arithmetic for one run: percentiles, shares and per-op rates."""

from __future__ import annotations

import math
import statistics

# p95 is only reported with at least this many samples above it, so a run
# must time at least MIN_BEYOND / (1 - 0.95) = 200 ops.
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


def count_beyond(samples, value) -> int:
    """Samples strictly above ``value``."""
    return sum(1 for s in samples if s > value)


def min_samples_for(pct: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the nearest-rank ``pct`` percentile has at
    least ``beyond`` samples strictly above it (when samples are distinct)."""
    n = beyond
    while n - math.ceil(pct / 100.0 * n) < beyond:
        n += 1
    return n


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, computed the way the regression gate computes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
