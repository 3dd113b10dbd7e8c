"""Order statistics used by the report."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, lowest first
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest grid percentile that leaves at least 10 of ``n`` samples beyond it."""
    best = None
    for pct in TAIL_GRID:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND_TAIL:
            best = pct
    return best


def spread(values: list[float]) -> float:
    """(max - min) / median: the within-run spread the report prints."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0
