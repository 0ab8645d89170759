"""Summary statistics shared by the harness and its self-tests."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: The tail is reported at the highest percentile that still leaves this
#: many samples strictly above it.
TAIL_BEYOND = 10

#: A timed run keeps going past ``--seconds`` until it has this many
#: samples, so the tail percentile always exists.
MIN_SAMPLES = TAIL_BEYOND + 1

#: With fewer samples than this the tail sample lies below the median.
TAIL_MIN_SAMPLES = 2 * TAIL_BEYOND + 1


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the tail sample.

    Of ``n`` sorted samples, the highest one with at least
    :data:`TAIL_BEYOND` samples beyond it is the ``n - 10``-th; its
    percentile is the share of samples at or below it.  Needs at least
    :data:`MIN_SAMPLES` samples.
    """
    n = len(values)
    if n < MIN_SAMPLES:
        raise ValueError(
            f"the tail needs at least {MIN_SAMPLES} samples, got {n}"
        )
    ordered = sorted(values)
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
