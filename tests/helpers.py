"""Shared builders and independent oracles for the test suite."""

import itertools

import numpy as np

from affine_transport import (
    DomainSpec,
    GaussianModel,
    TooLarge,
    TransitionDataset,
    at_map,
    gen_linear,
    gen_puck,
    procrustes,
    rng_stream,
)

MAX_BRUTE = 8


def brute_force_w2(x, y):
    """W2 between equal-size point sets with uniform weights, by enumerating
    every pairing; an oracle for the assignment solver at tiny n.

    It shares no code with the solver: the cost of each permutation is
    accumulated with direct arithmetic. A 1-D array is read as one column.
    """
    xs, ys = (np.asarray(a, dtype=np.float64).reshape(len(a), -1) for a in (x, y))
    n = xs.shape[0]
    if n > MAX_BRUTE:
        raise TooLarge(f"enumeration is capped at {MAX_BRUTE} points, got {n}")
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            diff = xs[i] - ys[j]
            total += float(diff @ diff)
        best = min(best, total)
    return float(np.sqrt(best / n))


def scipy_w2(x, y):
    """Exact W2 from scipy's assignment solver on the unshifted squared
    distances, summed from the cost matrix; the reference for the package's
    warm-started solve. A 1-D array is read as one column."""
    import scipy.optimize
    import scipy.spatial.distance

    xs, ys = (np.asarray(a, dtype=np.float64).reshape(len(a), -1) for a in (x, y))
    cost = scipy.spatial.distance.cdist(xs, ys, metric="sqeuclidean")
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(np.sqrt(max(float(cost[rows, cols].sum()) / len(xs), 0.0)))


def sample_fit(xs, xt):
    """``(R, A, b)`` of a transfer fit computed from the rows themselves:
    ``procrustes`` on the centred rows, then ``at_map`` from the rotated
    source rows to the target rows; an oracle for ``fit``, which reads only
    the pair's moments."""
    xs, xt = (np.asarray(a, dtype=np.float64) for a in (xs, xt))
    r = procrustes((xs - xs.mean(axis=0)).T, (xt - xt.mean(axis=0)).T)
    at = at_map(xs @ r.T, xt)
    return r, at.matrix, at.offset


def spd_inv_sqrt(m):
    """Inverse principal square root of an SPD matrix from a plain ``eigh``;
    an oracle for the package's roots, with none of their checks or clamping."""
    w, v = np.linalg.eigh(m)
    return (v / np.sqrt(w)) @ v.T


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    # fix the sign convention so the distribution is uniform over O(d)
    return q * np.sign(np.diag(r))


def random_spd(rng, d, spread=4.0):
    """Random SPD matrix with eigenvalues log-uniform in [1/spread, spread]."""
    q = random_orthogonal(rng, d)
    lam = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=d))
    return (q * lam) @ q.T


def random_gaussian(rng, d, spread=4.0):
    return GaussianModel(rng.standard_normal(d), random_spd(rng, d, spread))


def linear_pair(
    seed,
    n,
    state_dim=3,
    action_dim=2,
    noise=0.0,
    dynamics=None,
    controls=None,
    target_scales=None,
    target_inverted=(),
    target_disabled=(),
    source_disabled=(),
):
    """Paired linear datasets sharing states and actions.

    The base dynamics default to seeded random matrices so the pair is fully
    determined by the seed; pass explicit matrices to keep the domain fixed
    while varying the sample seed.
    """
    rng = rng_stream(seed, "test-base")
    if dynamics is None:
        dynamics = rng.standard_normal((state_dim, state_dim)) / np.sqrt(state_dim)
    if controls is None:
        controls = rng.standard_normal((state_dim, action_dim)) / np.sqrt(action_dim)
    actions = rng_stream(seed, "test-actions").standard_normal((n, action_dim))
    source = DomainSpec(
        "linear",
        label="source",
        noise_std=noise,
        dynamics=dynamics,
        controls=controls,
        disabled=tuple(source_disabled),
    )
    target = DomainSpec(
        "linear",
        label="target",
        noise_std=noise,
        dynamics=dynamics,
        controls=controls,
        scales=target_scales,
        inverted=tuple(target_inverted),
        disabled=tuple(target_disabled),
    )
    return gen_linear(source, actions, seed), gen_linear(target, actions, seed)


def puck_pair(seed, n, noise=0.0, target_friction=(0.1, 0.4)):
    """Isotropic source puck versus anisotropic target puck, shared launches."""
    actions = rng_stream(seed, "test-actions").uniform(-3.0, 3.0, size=(n, 2))
    source = DomainSpec("puck", label="source", noise_std=noise)
    target = DomainSpec(
        "puck",
        label="target",
        noise_std=noise,
        friction_x=target_friction[0],
        friction_y=target_friction[1],
    )
    return gen_puck(source, actions, seed), gen_puck(target, actions, seed)


def affine_rows_pair(seed, n, state_dim, action_dim, matrix, offset=None):
    """Paired datasets whose rows are related by an exact affine map."""
    width = 2 * state_dim + action_dim
    rows = rng_stream(seed, "test-rows").standard_normal((n, width))
    mapped = rows @ np.asarray(matrix, dtype=np.float64).T
    if offset is not None:
        mapped = mapped + np.asarray(offset, dtype=np.float64)
    source = TransitionDataset(state_dim, action_dim, rows, "source", seed)
    target = TransitionDataset(state_dim, action_dim, mapped, "target", seed)
    return source, target
