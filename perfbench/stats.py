"""Order statistics for benchmark runs."""

import math
import statistics

# Candidate high percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def high_percentile(values, beyond=10):
    """The highest of PERCENTILES that has at least `beyond` samples above
    it, as (percentile, nearest-rank value); None when there are too few
    samples for any of them."""
    n = len(values)
    ordered = sorted(values)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1]
    return None
