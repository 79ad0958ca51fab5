"""Summary statistics for the benchmark: medians, and percentiles under
the sample-count rule."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so that one outlier cannot set it.
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank `q`-th percentile of `values` (0 < q < 100).

    Raises ValueError when fewer than MIN_BEYOND samples lie above the
    chosen rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it, fewer than {MIN_BEYOND}"
        )
    return ordered[rank - 1]
