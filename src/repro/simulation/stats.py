"""Percentile summaries.

Evaluation figures in the paper report means, standard deviations, medians and
interpercentile ranges of response times; these helpers summarise them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np


def percentile_summary(
    values: Sequence[float],
    percentiles: Sequence[float] = (5.0, 25.0, 50.0, 75.0, 95.0),
) -> Dict[str, float]:
    """Summarise ``values`` into mean, std and the requested percentiles.

    This is the summary used to describe the interpercentile ranges shown in
    Fig. 4 of the paper.
    """
    if len(values) == 0:
        raise ValueError("cannot summarise an empty collection")
    array = np.asarray(values, dtype=float)
    summary: Dict[str, float] = {
        "count": float(array.size),
        "mean": float(array.mean()),
        "std": float(array.std()),
        "min": float(array.min()),
        "max": float(array.max()),
    }
    for percentile in percentiles:
        summary[f"p{percentile:g}"] = float(np.percentile(array, percentile))
    return summary


def linear_percentiles(values: np.ndarray, percents: Sequence[float]) -> List[float]:
    """``np.percentile(values, p)`` for each ``p`` in [0, 100], bit for bit.

    This is numpy's default ``"linear"`` method (Hyndman & Fan's definition
    7) with numpy's own interpolation formula, on one partition of the
    values around the order statistics it needs.  ``np.percentile`` itself
    passes those indices through ``np.unique``, whose first call in a
    process imports ``numpy.ma`` (about 15 ms), which a run's result fold
    would otherwise pay.  ``values`` must be non-empty and free of NaN.

    A float64 array is partitioned in place, losing its order, so a caller
    reads whatever depends on that order before this call.  Other input is
    partitioned in a converted copy.
    """
    ordered = np.asarray(values, dtype=float)
    last = ordered.size - 1
    virtuals = [last * (percent / 100.0) for percent in percents]
    needed = {
        min(math.floor(virtual) + step, last) for virtual in virtuals for step in (0, 1)
    }
    ordered.partition(sorted(needed))
    results = []
    for virtual in virtuals:
        if virtual >= last:
            results.append(float(ordered[last]))
            continue
        below = math.floor(virtual)
        low = float(ordered[below])
        high = float(ordered[below + 1])
        gamma = virtual - below
        # Interpolate from the nearer neighbour, as numpy does.
        if gamma >= 0.5:
            results.append(high - (high - low) * (1.0 - gamma))
        else:
            results.append(low + (high - low) * gamma)
    return results
