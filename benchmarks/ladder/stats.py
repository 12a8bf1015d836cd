"""Order statistics shared by the runner, ``compare.py`` and the tests."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(sample: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of a non-empty sample."""
    if not sample:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(sample)
    rank = -(-len(ordered) * q // 100)  # ceil without float error
    return ordered[max(1, int(rank)) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0.0 below two values).

    The same rule the acceptance check applies to ten runs:
    ``statistics.quantiles(values, n=4)``, third minus first quartile,
    divided by the median.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return abs(third - first) / abs(centre) if centre else 0.0


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """The mean of ``values`` under ``weights`` (the window's query mix)."""
    total = sum(weights)
    return sum(v * w for v, w in zip(values, weights)) / total
