"""Order statistics with the benchmark's sample-count rule.

A percentile is reported only when at least ten samples lie beyond it,
so ``p90`` needs 100 samples and ``p99`` needs 1000.  Every summary
carries its sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["MIN_TAIL", "median", "percentile", "percentile_allowed", "quartile_spread"]

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile_allowed(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_TAIL`` beyond the ``q``-th percentile."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return n * (100.0 - q) / 100.0 >= MIN_TAIL - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses too few samples.

    Raises :class:`ValueError` when fewer than ``MIN_TAIL`` samples
    would lie beyond the percentile (``p90`` of 99 samples, say).
    """
    n = len(values)
    if not percentile_allowed(n, q):
        raise ValueError(
            f"p{q:g} needs at least {math.ceil(MIN_TAIL * 100 / (100 - q))} "
            f"samples, got {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
