"""Order statistics shared by the benchmark runner and the compare tool.

Quartiles follow :func:`statistics.quantiles` with ``n=4`` (its default
"exclusive" method), so a spread computed here matches one computed by
anyone else who feeds the same values to the standard library.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one value)."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)

