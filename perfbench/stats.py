"""Order statistics with their sample counts."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it (no interpolation, so it is always an
    observed value)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the q-th percentile."""
    return n - max(1, math.ceil(n * q / 100.0))


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median and the highest of p90/p95/p99 that has at least ten
    samples beyond it, with the sample count."""
    out: Dict[str, float] = {"n": len(values),
                             "p50": statistics.median(values)}
    for q in (99, 95, 90):
        if beyond(len(values), q) >= 10:
            out[f"p{q}"] = percentile(values, q)
            break
    return out

