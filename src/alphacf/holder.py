"""Exploratory Hoelder-exponent estimation from uniformly sampled data.

The local oscillation of a C^h function over a window of width s scales
like s^h; the estimator regresses log(max oscillation) on log(scale) over
dyadic window sizes.  This is diagnostic output, not a certified exponent.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

MIN_SCALES = 4


class InsufficientScales(ValueError):
    """Too few samples for at least four dyadic scales."""


@dataclass
class HolderEstimate:
    exponent: float
    scales_used: list[int]   # window sizes, in samples
    r2: float


def estimate_holder(values) -> HolderEstimate:
    """Oscillation-regression estimate of the Hoelder exponent.

    ``values`` are samples of a function on a uniform grid.  Windows of
    2, 4, 8, ... samples are tiled over the data; the max oscillation per
    scale feeds a least-squares log-log fit whose slope is the exponent.
    """
    v = [float(y) for y in values]
    n = len(v)
    if n < 2 ** (MIN_SCALES + 4):
        raise InsufficientScales(
            f"need at least {2 ** (MIN_SCALES + 4)} samples, got {n}")
    # max and min would pass over a NaN, and an inf makes the slope NaN
    if not all(map(math.isfinite, v)):
        raise InsufficientScales("no usable scales: a sample is not finite")
    scales, oscs = [], []
    # windows below 8 samples resolve a cusp too coarsely and bias the
    # slope upward, so the smallest scales are skipped
    w = 8
    while w <= n // 4:
        osc = max(max(t) - min(t) for t in
                  (v[i:i + w] for i in range(0, n // w * w, w)))
        if osc > 0:
            scales.append(w)
            oscs.append(osc)
        w *= 2
    if len(scales) < MIN_SCALES:
        raise InsufficientScales(
            f"only {len(scales)} usable scales, need {MIN_SCALES}")
    lx = [math.log(w) for w in scales]
    ly = [math.log(o) for o in oscs]
    slope, intercept = statistics.linear_regression(lx, ly)
    mean = math.fsum(ly) / len(ly)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2
                       for x, y in zip(lx, ly))
    ss_tot = math.fsum((y - mean) ** 2 for y in ly)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return HolderEstimate(slope, scales, r2)
