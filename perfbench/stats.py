"""Small order statistics shared by the harness and its tests."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values) -> float:
    return percentile(values, 50)
