"""Exact empirical 2-Wasserstein distance between equal-size sample sets.

With uniform weights on n points per side, the Kantorovich problem has a
permutation solution, so the exact distance reduces to a linear assignment
over the squared-distance cost matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, PairingMismatch, TooLarge
from .linalg import sample_pair

__all__ = [
    "empirical_w2",
    "pointwise_error",
    "MAX_EXACT",
]

MAX_EXACT = 4096


# scipy is imported by the first solve, not with the package: most commands
# never solve, and the import costs them more start-up than numpy itself
def cdist(xa, xb, metric):
    import scipy.spatial.distance

    return scipy.spatial.distance.cdist(xa, xb, metric=metric)


def linear_sum_assignment(cost):
    import scipy.optimize

    return scipy.optimize.linear_sum_assignment(cost)


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
        per = _row_norms(p - a)
        return float(per.mean()), float(per.std()), per


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, squared in place: the bits of
    ``np.linalg.norm(diff, axis=-1)`` without its two copies. Overwrites diff."""
    np.multiply(diff, diff, out=diff)
    norms = np.add.reduce(diff, axis=-1)
    return np.sqrt(norms, out=norms)
