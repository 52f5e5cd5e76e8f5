"""Deterministic reductions.

All scalar sums in the package go through :func:`pairwise_sum`, a strict
binary-tree fold. The summation order is a pure function of the array
length, so results are bit-identical across runs and thread counts. Every
threshold search goes through :func:`_bisect`, one fixed midpoint rule.
"""

from __future__ import annotations

import numpy as np


def pairwise_sum(a) -> float:
    """Sum a 1-D/2-D array by halving folds (fixed binary tree).

    The fold order depends only on ``a.size``; no partial sums are
    accumulated left-to-right, which keeps the result independent of any
    chunking a parallel backend might choose.
    """
    x = np.asarray(a, dtype=np.float64).ravel()
    if x.size == 0:
        return 0.0
    while x.size > 1:
        n = x.size
        if n % 2:
            # fold the odd tail into the last pair
            tail = x[-1]
            x = x[:-1]
            x = x[0::2] + x[1::2]
            x[-1] = x[-1] + tail
        else:
            x = x[0::2] + x[1::2]
    return float(x[0])


def _bisect(ok, lo: float, hi: float, step: float) -> float:
    """Halve ``[lo, hi]`` until it is at most ``step`` wide and return its
    upper end. ``ok`` must be false at ``lo``, true at ``hi`` and monotone
    between, so the result is the least ``ok`` point to within ``step``."""
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
