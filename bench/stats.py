"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

TAIL_BEYOND = 10  # samples a tail percentile must have above it


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples above it: (value, percentile).

    With n sorted samples that is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile.  Below eleven samples no percentile
    qualifies, and the maximum is reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
