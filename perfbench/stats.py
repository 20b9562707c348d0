"""Percentiles that name only what the sample supports.

A percentile ``p`` is *supported* by ``n`` samples when at least ten of
them lie beyond it: ``n * (1 - p / 100) >= 10``.  So p50 needs 20
samples, p90 needs 100 and p99 needs 1000.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: How many samples must lie beyond a reported percentile.
SAMPLES_BEYOND = 10


def min_samples(p: float) -> int:
    """Fewest samples that support percentile ``p``."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    return math.ceil(SAMPLES_BEYOND * 100 / (100 - p) - 1e-9)


def supported(p: float, n: int) -> bool:
    """Whether ``n`` samples support percentile ``p``."""
    return n >= min_samples(p)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default), 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timing_summary(prefix: str, values_ms: Sequence[float]) -> Dict[str, float]:
    """``<prefix>.p50/.p99/.sum/.count`` for one timed span or request."""
    values: List[float] = list(values_ms)
    return {
        f"{prefix}.p50": percentile(values, 50),
        f"{prefix}.p99": percentile(values, 99),
        f"{prefix}.sum": float(sum(values)),
        f"{prefix}.count": float(len(values)),
    }
