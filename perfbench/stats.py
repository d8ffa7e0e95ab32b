"""Order statistics for benchmark samples.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the default
"exclusive" method), so the spread a run reports is the spread anyone
recomputes from the same values with the standard library.
"""

from __future__ import annotations

import statistics

# A tail percentile is only reported where at least this many samples lie
# beyond it; with fewer, a single slow sample would set it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n): the sample at sorted index
    n - 1 - beyond, which has exactly `beyond` samples after it, and its
    percentile rank 100 * index / (n - 1).  Needs n > beyond samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    index = n - 1 - beyond
    return sorted(values)[index], 100.0 * index / (n - 1), n
