"""Closed-form 2-Wasserstein geometry between Gaussian models.

For Gaussians p = N(mu1, S1) and q = N(mu2, S2) the squared distance is

    W2(p, q)^2 = |mu1 - mu2|^2 + tr S1 + tr S2 - 2 tr (S2^1/2 S1 S2^1/2)^1/2

and the optimal map is affine, x -> A x + b, with

    A = S2^1/2 (S2^1/2 S1 S2^1/2)^-1/2 S2^1/2,    b = mu2 - A mu1.

The map, the distance and the gap bound share one factorization, the SVD
U diag(sig) V^T of the root product S2^1/2 S1^1/2: sig sums to the cross
term tr (S2^1/2 S1 S2^1/2)^1/2, and U diag(1/sig) U^T is the inner inverse
root. Forming S2^1/2 S1 S2^1/2 instead would square its conditioning and
lose pairs of low-rank covariances whose degenerate subspaces line up.

The affine transport map between two arbitrary sample sets is this optimal
map between their normal (moment) approximations, as ``estimate_moments``
gives them. Every mean and covariance comes from one reducer, ``_moments``:
the centred Gram of side-by-side row sets, summed over row chunks without a
centred copy (``transfer.fit`` reduces a pair with it). Two bounds relate the
Gaussian picture back to the raw distributions: a gap bound for the distance
between normal approximations versus the true distance, and a worst-case
bound sqrt(2 tr S) for the distance between any distribution and anything
sharing its normal approximation's covariance budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, TooFewSamples
from .linalg import _checked_eigh, _readonly, _root, check_symmetric, sample_matrix

__all__ = [
    "GaussianModel",
    "estimate_moments",
    "AffineMap",
    "gaussian_w2",
    "gaussian_ot_map",
    "at_map",
    "gelbrich_gap_bound",
    "normal_approx_bound",
]


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and symmetric PSD covariance of a normal distribution.

    The constructor checks shapes and symmetry only, so a NaN covariance (from
    rows whose moments overflow) passes it. Each use runs ``_checked_eigh``,
    which raises NonFinite naming the side: the source or target covariance
    in ``gaussian_w2``, ``gaussian_ot_map`` and ``gelbrich_gap_bound``, and
    ``sigma`` in ``normal_approx_bound``.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.ndim != 2 or cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match mean of length {mean.shape[0]}"
            )
        check_symmetric(cov, "covariance")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "covariance", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


# ridge added to every estimated covariance: max(floor, scale * tr / d)
RIDGE_FLOOR = 1e-10
RIDGE_SCALE = 1e-9

# bytes of centred rows a Gram is accumulated from at a time
_GRAM_CHUNK = 1 << 16


def estimate_moments(samples: np.ndarray) -> GaussianModel:
    """Normal approximation of a sample set: its mean and a ridged covariance.

    The covariance uses the 1/n divisor (moment plug-in, matching the
    normal approximation) plus ``max(1e-10, 1e-9 * tr / d)`` on the diagonal
    so downstream inverse roots exist even when some coordinate is constant.

    Parameters
    ----------
    samples : (n, d) array
        Rows are observations; a 1-D array is treated as n scalar samples.

    Raises
    ------
    DimensionMismatch
        If the input is neither 1-D nor 2-D.
    NonFinite
        If any entry is NaN or infinite.
    TooFewSamples
        If fewer than two rows are given.
    """
    x = sample_matrix(samples, "samples")
    if x.shape[0] < 2:
        raise TooFewSamples(f"need at least 2 samples to estimate moments, got {x.shape[0]}")
    n, (mean,), gram = _moments(x)
    # an overflowing covariance is rejected once, by _root where it is used
    with np.errstate(over="ignore", invalid="ignore"):
        return GaussianModel(mean, _ridged(gram / n))


def _moments(*sides: np.ndarray):
    """``(n, means, gram)`` of stacks (..., n, w_i) of rows taken side by side:
    a tuple of their means and the Gram of the centred ``[side_1 | side_2 ...]``,
    summed over chunks of at most ``_GRAM_CHUNK`` bytes of centred rows, so no
    centred copy is made. Overflow is left in the result, not warned about."""
    *stack, n, _ = sides[0].shape
    edges = np.cumsum([0] + [side.shape[-1] for side in sides])
    width = int(edges[-1])
    step = max(1, _GRAM_CHUNK // max(8, 8 * width))
    with np.errstate(over="ignore", invalid="ignore"):
        means = tuple(side.mean(axis=-2) for side in sides)
        gram = np.zeros((*stack, width, width))
        buf = np.empty((*stack, min(n, step), width))
        for start in range(0, n, step):
            z = buf[..., : min(step, n - start), :]
            rows = slice(start, start + z.shape[-2])
            for side, mean, lo, hi in zip(sides, means, edges, edges[1:]):
                np.subtract(side[..., rows, :], mean[..., None, :], out=z[..., lo:hi])
            gram += np.swapaxes(z, -1, -2) @ z
    return n, means, gram


def _ridged(cov: np.ndarray) -> np.ndarray:
    """A covariance or a stack (..., d, d) of them, symmetrized, plus
    ``max(1e-10, 1e-9 * tr / d)`` on each diagonal: the ridge
    ``estimate_moments`` documents."""
    d = cov.shape[-1]
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    ridge = np.maximum(RIDGE_FLOOR, RIDGE_SCALE * np.trace(cov, axis1=-2, axis2=-1) / d)
    return cov + np.asarray(ridge)[..., None, None] * np.eye(d)


@dataclass(frozen=True)
class AffineMap:
    """The map x -> matrix @ x + offset, applied row-wise to sample sets."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        offset = np.asarray(self.offset, dtype=np.float64).reshape(-1)
        if matrix.ndim != 2 or matrix.shape[0] != offset.shape[0]:
            raise DimensionMismatch(
                f"matrix shape {matrix.shape} does not match offset of length {offset.shape[0]}"
            )
        object.__setattr__(self, "matrix", _readonly(matrix))
        object.__setattr__(self, "offset", _readonly(offset))

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a single vector (d,) or a stack of row vectors (n, d)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim_in:
            raise DimensionMismatch(
                f"input of width {x.shape[-1]} fed to a map expecting {self.dim_in}"
            )
        return x @ self.matrix.T + self.offset


def _cross_trace(sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    # tr (S2^1/2 S1 S2^1/2)^1/2, from the root product _ot_affine factors
    s2 = _root(sigma2, "target covariance", require_invertible=False)
    s1 = _root(sigma1, "source covariance", require_invertible=False)
    return float(np.linalg.svd(s2 @ s1, compute_uv=False).sum())


def gaussian_w2(p: GaussianModel, q: GaussianModel) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussian models.

    Both covariances are checked as ``gaussian_ot_map`` checks them, short of
    invertibility. The squared distance is clamped at zero before the final
    square root so rounding noise on identical models cannot produce NaN.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"models have dimensions {p.dim} and {q.dim}")
    delta = p.mean - q.mean
    sq = (
        float(delta @ delta)
        + float(np.trace(p.covariance))
        + float(np.trace(q.covariance))
        - 2.0 * _cross_trace(p.covariance, q.covariance)
    )
    return float(np.sqrt(max(sq, 0.0)))


def gaussian_ot_map(p: GaussianModel, q: GaussianModel) -> AffineMap:
    """Optimal transport map from Gaussian p onto Gaussian q.

    Returns the affine map with symmetric PSD matrix
    ``A = S2^1/2 (S2^1/2 S1 S2^1/2)^-1/2 S2^1/2`` and offset
    ``b = q.mean - A @ p.mean``. Raises SingularMatrix when either covariance
    is numerically singular (eigenvalue ratio below 1e-12); ridge-regularized
    estimates always pass.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"models have dimensions {p.dim} and {q.dim}")
    a, b = _ot_affine(p.mean[None], p.covariance[None], q.mean[None], q.covariance[None])
    return AffineMap(a[0], b[0])


def _ot_affine(mean1, sigma1, mean2, sigma2):
    """``(A, b)`` of ``gaussian_ot_map`` for stacks: means (..., d) and
    covariances (..., d, d) of the source and target Gaussians."""
    s2 = _root(sigma2, "target covariance", require_invertible=True)
    s1 = _root(sigma1, "source covariance", require_invertible=True)
    # S2 S1 S1 S2 = (S2 S1)(S2 S1)^T, so with S2 S1 = U diag(sig) V^T the
    # middle factor of A is U diag(1/sig) U^T
    u, sig, _ = np.linalg.svd(s2 @ s1)
    half = s2 @ u
    a = (half / sig[..., None, :]) @ np.swapaxes(half, -1, -2)
    a = (a + np.swapaxes(a, -1, -2)) / 2.0
    return a, mean2 - (a @ mean1[..., None])[..., 0]


def at_map(source: np.ndarray, target: np.ndarray) -> AffineMap:
    """Affine transport map between two sample sets.

    The Gaussian optimal map between the sets' normal approximations. The
    sets do not need equal sample counts, only equal dimension.
    """
    return gaussian_ot_map(estimate_moments(source), estimate_moments(target))


def gelbrich_gap_bound(p: GaussianModel, q: GaussianModel) -> float:
    """Bound on the gap between the Gaussian distance and the true distance.

    For distributions X, Y with the moments of p, q, the distance between the
    normal approximations lower-bounds W2(X, Y), and the difference is at most

        2 tr[(S1 S2)^1/2] / sqrt(tr S1 + tr S2)

    where the trace term is the cross term of ``gaussian_w2``.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"models have dimensions {p.dim} and {q.dim}")
    # the cross term checks both covariances, so a negative trace is reported
    # as the indefinite covariance it comes from
    cross = _cross_trace(p.covariance, q.covariance)
    total = float(np.trace(p.covariance)) + float(np.trace(q.covariance))
    if total <= 0.0:
        raise DegenerateInput("both covariances have zero trace; the bound is undefined")
    return 2.0 * cross / float(np.sqrt(total))


def normal_approx_bound(sigma: np.ndarray) -> float:
    """Worst-case distance budget sqrt(2) * sqrt(tr sigma).

    Any distribution is within this of its own normal approximation, and the
    transported source stays within this of the target whose covariance is
    sigma; the affinity score divides by this value. sigma is checked as
    every covariance is: IndefiniteMatrix below -1e-6 of its top eigenvalue.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    _checked_eigh(sigma, "sigma")
    tr = max(float(np.trace(sigma)), 0.0)
    return float(np.sqrt(2.0) * np.sqrt(tr))
