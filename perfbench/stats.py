"""Percentiles used by the latency metrics (medians come from ``statistics``).

Percentiles use the nearest-rank definition, so a reported percentile is
always one of the measured samples.  Tail latencies follow one rule: report
the highest percentile that still has at least ``MIN_BEYOND`` samples above
it, so a tail figure never rests on a handful of requests.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of non-empty ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank strictly above the nearest-rank ``p``."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest candidate percentile with ``min_beyond`` of ``n`` samples above it.

    Returns ``None`` when even the lowest candidate lacks that many samples.
    """
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None
