"""Order statistics shared by the benchmark and its proof runs."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["median", "quartiles", "spread"]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for constant values)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2)
