"""Exact empirical 2-Wasserstein distance between equal-size sample sets.

With uniform weights on n points per side, the Kantorovich problem has a
permutation solution, so the exact distance reduces to a linear assignment
over the squared-distance cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, PairingMismatch, TooLarge
from .linalg import sample_pair

__all__ = [
    "TransportPlan",
    "empirical_w2",
    "pointwise_error",
    "MAX_EXACT",
]

MAX_EXACT = 4096


@dataclass(frozen=True)
class TransportPlan:
    """Optimal matching with its transport cost.

    Source point i is matched to target point ``permutation[i]``; with n
    uniformly weighted points per side the coupling puts mass 1/n on each
    matched pair. ``total_cost`` is the mean squared distance over the pairs.
    """

    permutation: np.ndarray
    total_cost: float

    def __post_init__(self):
        perm = np.array(self.permutation, dtype=np.intp)
        if perm.ndim != 1:
            raise DimensionMismatch(f"permutation must be 1-D, got shape {perm.shape}")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError(f"matching is not a permutation of range({perm.size})")
        perm.setflags(write=False)
        object.__setattr__(self, "permutation", perm)


def empirical_w2(x: np.ndarray, y: np.ndarray):
    """Exact W2 between two equal-size point sets with uniform weights.

    Solves the assignment problem on the squared Euclidean cost matrix and
    returns ``(distance, plan)`` where ``distance = sqrt(total_cost)`` and the
    plan holds the optimal matching as a permutation. Deterministic for fixed
    inputs.

    Raises PairingMismatch if the sets differ in count or are empty,
    DimensionMismatch if they differ in width, and TooLarge above 4096 points
    per side.
    """
    xs, ys = sample_pair(x, y)
    n = xs.shape[0]
    if n == 0:
        raise PairingMismatch("cannot transport between empty sample sets")
    if n > MAX_EXACT:
        raise TooLarge(f"exact assignment is capped at {MAX_EXACT} points, got {n}")
    cost = cdist(xs, ys, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) / n
    # the cost is square, so rows is range(n) and cols alone is the matching
    return float(np.sqrt(max(total, 0.0))), TransportPlan(cols, total)


def pointwise_error(predicted: np.ndarray, actual: np.ndarray):
    """Per-row Euclidean errors between paired predictions and ground truth.

    Returns ``(mean, std, per_sample)`` with the population standard
    deviation (ddof = 0).
    """
    p, a = sample_pair(predicted, actual, ("predicted", "actual"))
    per = np.linalg.norm(p - a, axis=1)
    return float(per.mean()), float(per.std()), per
