"""Exact empirical 2-Wasserstein distance between equal-size sample sets.

With uniform weights on n points per side, the Kantorovich problem has a
permutation solution, so the exact distance reduces to a linear assignment
over the squared-distance cost matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import NonFinite, PairingMismatch, TooLarge
from .linalg import sample_pair

__all__ = [
    "empirical_w2",
    "pointwise_error",
    "MAX_EXACT",
]

MAX_EXACT = 4096


def empirical_w2(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W2 between two equal-size point sets with uniform weights.

    Solves the assignment problem on the squared Euclidean cost matrix and
    returns the square root of the mean squared distance over the optimal
    matching. Deterministic for fixed inputs.

    Raises PairingMismatch if the sets differ in count or are empty,
    DimensionMismatch if they differ in width, TooLarge above 4096 points
    per side, and NonFinite if a squared distance overflows.
    """
    xs, ys = sample_pair(x, y)
    n = xs.shape[0]
    if n == 0:
        raise PairingMismatch("cannot transport between empty sample sets")
    if n > MAX_EXACT:
        raise TooLarge(f"exact assignment is capped at {MAX_EXACT} points, got {n}")
    cost = cdist(xs, ys, metric="sqeuclidean")
    # squared distances are never negative, so the max is finite exactly when
    # every entry is; unlike isfinite(cost) it needs no n-by-n mask
    if not np.isfinite(cost.max()):
        raise NonFinite("squared distances between the sample sets overflow")
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) / n
    return float(np.sqrt(max(total, 0.0)))


def pointwise_error(predicted: np.ndarray, actual: np.ndarray):
    """Per-row Euclidean errors between paired predictions and ground truth.

    Returns ``(mean, std, per_sample)`` with the population standard
    deviation (ddof = 0).
    """
    p, a = sample_pair(predicted, actual, ("predicted", "actual"))
    # an error that overflows is inf (its std NaN), not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        per = np.linalg.norm(p - a, axis=1)
        return float(per.mean()), float(per.std()), per
