"""Tests for closed-form Gaussian transport: distance, map, and bounds."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from affine_transport import (
    AffineMap,
    DegenerateInput,
    DimensionMismatch,
    GaussianModel,
    IndefiniteMatrix,
    SingularMatrix,
    TooFewSamples,
    at_map,
    empirical_w2,
    estimate_moments,
    gaussian_ot_map,
    gaussian_w2,
    gelbrich_gap_bound,
    normal_approx_bound,
    spd_sqrt,
)
from affine_transport.gaussian_ot import _GRAM_CHUNK, _moments
from helpers import random_gaussian, random_orthogonal, random_spd, spd_inv_sqrt

seeds = st.integers(0, 2**32 - 1)


def _gauss(mean, cov):
    return GaussianModel(np.asarray(mean, dtype=float), np.asarray(cov, dtype=float))


def test_w2_identical_gaussians():
    p = _gauss([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
    assert gaussian_w2(p, p) <= 1e-7


def test_w2_scalar_case():
    p = _gauss([0.0], [[1.0]])
    q = _gauss([3.0], [[4.0]])
    # 9 + 1 + 4 - 2*2 = 10
    assert abs(gaussian_w2(p, q) - np.sqrt(10.0)) <= 1e-9


def test_w2_swapped_diagonals():
    p = _gauss([0.0, 0.0], np.diag([1.0, 4.0]))
    q = _gauss([0.0, 0.0], np.diag([4.0, 1.0]))
    # 5 + 5 - 2*(2 + 2) = 2
    assert abs(gaussian_w2(p, q) - np.sqrt(2.0)) <= 1e-9


def test_w2_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gaussian_w2(_gauss([0.0], [[1.0]]), _gauss([0.0, 0.0], np.eye(2)))
    with pytest.raises(DimensionMismatch, match="^models have dimensions 1 and 2$"):
        gelbrich_gap_bound(_gauss([0.0], [[1.0]]), _gauss([0.0, 0.0], np.eye(2)))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 4))
def test_w2_symmetric(seed, d):
    rng = np.random.default_rng(seed)
    p = random_gaussian(rng, d)
    q = random_gaussian(rng, d)
    assert abs(gaussian_w2(p, q) - gaussian_w2(q, p)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 4))
def test_w2_triangle_inequality(seed, d):
    rng = np.random.default_rng(seed)
    p = random_gaussian(rng, d)
    q = random_gaussian(rng, d)
    r = random_gaussian(rng, d)
    assert gaussian_w2(p, r) <= gaussian_w2(p, q) + gaussian_w2(q, r) + 1e-8


@pytest.mark.parametrize("distance", [gaussian_w2, gelbrich_gap_bound])
def test_distances_check_both_covariances(distance):
    bad = _gauss([0.0, 0.0], np.diag([1.0, -0.5]))
    good = _gauss([0.0, 0.0], np.eye(2))
    for p, q, side in ((bad, good, "source"), (good, bad, "target")):
        message = f"^{side} covariance has eigenvalue -5.000e-01 "
        with pytest.raises(IndefiniteMatrix, match=message):
            distance(p, q)


@pytest.mark.parametrize("eigenvalues", [(1e6, 1.0, 0.0), (1.0, 1e-8)])
def test_w2_self_distance_of_rotated_ill_conditioned_covariance(eigenvalues):
    # a rank-deficient and an ill-conditioned covariance, off the axes
    lam = np.array(eigenvalues)
    q = random_orthogonal(np.random.default_rng(0), lam.size)
    cov = (q * lam) @ q.T
    cov = (cov + cov.T) / 2.0
    p = _gauss(np.zeros(lam.size), cov)
    assert gaussian_w2(p, p) <= 1e-7 * np.sqrt(2.0 * np.trace(cov))


@settings(max_examples=300, deadline=None)
@given(seeds, st.integers(1, 6))
def test_w2_of_commuting_covariances_matches_the_exact_formula(seed, d):
    # covariances sharing eigenvectors Q have roots Q diag(sqrt lam) Q^T, so
    # W2^2 = |mu1 - mu2|^2 + |sqrt lam1 - sqrt lam2|^2 exactly
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, d)
    lam = 10.0 ** rng.uniform(-4.0, 4.0, size=(2, d))
    lam[rng.random((2, d)) < 0.3] = 0.0
    assume(lam.sum() > 0.0)
    mean = rng.standard_normal((2, d))
    covs = [(q * row) @ q.T for row in lam]
    p, r = (_gauss(mu, (c + c.T) / 2.0) for mu, c in zip(mean, covs))
    roots = np.sqrt(lam)
    exact = np.sqrt(np.sum((mean[0] - mean[1]) ** 2) + np.sum((roots[0] - roots[1]) ** 2))
    assert abs(gaussian_w2(p, r) - exact) <= 1e-5 * np.sqrt(lam.sum())


def test_models_reject_mismatched_shapes():
    shape = r"^covariance shape \(3, 3\) does not match mean of length 2$"
    with pytest.raises(DimensionMismatch, match=shape):
        GaussianModel(np.zeros(2), np.eye(3))
    shape = r"^matrix shape \(2, 2\) does not match offset of length 3$"
    with pytest.raises(DimensionMismatch, match=shape):
        AffineMap(np.eye(2), np.zeros(3))
    with pytest.raises(DimensionMismatch, match="^input of width 3 fed to a map expecting 2$"):
        AffineMap(np.eye(2), np.zeros(2)).apply(np.zeros((4, 3)))


def test_ot_map_identity():
    p = _gauss([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
    m = gaussian_ot_map(p, p)
    np.testing.assert_allclose(m.matrix, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(m.offset, np.zeros(2), atol=1e-9)


def test_ot_map_diagonal_stretch():
    p = _gauss([0.0, 0.0], np.diag([1.0, 4.0]))
    q = _gauss([0.0, 0.0], np.diag([9.0, 16.0]))
    m = gaussian_ot_map(p, q)
    np.testing.assert_allclose(m.matrix, np.diag([3.0, 2.0]), atol=1e-9)
    np.testing.assert_allclose(m.offset, np.zeros(2), atol=1e-9)


def test_ot_map_pure_translation():
    p = _gauss([1.0, 0.0], np.eye(2))
    q = _gauss([0.0, 1.0], np.eye(2))
    m = gaussian_ot_map(p, q)
    np.testing.assert_allclose(m.matrix, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(m.offset, [-1.0, 1.0], atol=1e-9)


def test_ot_map_rejects_singular_covariance():
    good = _gauss([0.0, 0.0], np.eye(2))
    # exactly singular, and an eigenvalue ratio below the 1e-12 threshold
    for small in (0.0, 1e-15):
        bad = _gauss([0.0, 0.0], np.diag([1.0, small]))
        with pytest.raises(SingularMatrix):
            gaussian_ot_map(bad, good)
        with pytest.raises(SingularMatrix):
            gaussian_ot_map(good, bad)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 5))
def test_ot_map_pushes_covariance_forward(seed, d):
    rng = np.random.default_rng(seed)
    p = random_gaussian(rng, d)
    q = random_gaussian(rng, d)
    a = gaussian_ot_map(p, q).matrix
    pushed = a @ p.covariance @ a.T
    assert np.linalg.norm(pushed - q.covariance) <= 1e-6 * np.linalg.norm(q.covariance)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 5))
def test_ot_map_matches_direct_root_composition(seed, d):
    rng = np.random.default_rng(seed)
    p = random_gaussian(rng, d)
    q = random_gaussian(rng, d)
    a = gaussian_ot_map(p, q).matrix
    s2 = spd_sqrt(q.covariance)
    direct = s2 @ spd_inv_sqrt(s2 @ p.covariance @ s2) @ s2
    np.testing.assert_allclose(a, direct, rtol=1e-7, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 5))
def test_ot_map_matches_inverse_based_form(seed, d):
    # same map written with roots of the source covariance instead
    rng = np.random.default_rng(seed)
    p = random_gaussian(rng, d)
    q = random_gaussian(rng, d)
    a = gaussian_ot_map(p, q).matrix
    s1 = spd_sqrt(p.covariance)
    s1i = spd_inv_sqrt(p.covariance)
    alt = s1i @ spd_sqrt(s1 @ q.covariance @ s1) @ s1i
    np.testing.assert_allclose(a, alt, rtol=1e-6, atol=1e-8)


def test_map_and_distance_agree():
    # mean transported cost over draws matches the closed-form W2 squared
    rng = np.random.default_rng(17)
    p = GaussianModel(np.zeros(3), random_spd(rng, 3))
    q = GaussianModel(np.zeros(3), random_spd(rng, 3))
    m = gaussian_ot_map(p, q)
    x = rng.multivariate_normal(p.mean, p.covariance, size=100000)
    cost = float(np.mean(np.sum((m.apply(x) - x) ** 2, axis=1)))
    w2sq = gaussian_w2(p, q) ** 2
    assert abs(cost - w2sq) <= 0.03 * w2sq


def test_at_map_on_identical_samples():
    x = np.random.default_rng(3).standard_normal((500, 3))
    m = at_map(x, x)
    np.testing.assert_allclose(m.matrix, np.eye(3), atol=1e-6)
    np.testing.assert_allclose(m.offset, np.zeros(3), atol=1e-6)


def test_at_map_doubling():
    x = np.random.default_rng(4).standard_normal((2000, 2))
    m = at_map(x, 2.0 * x)
    np.testing.assert_allclose(m.matrix, 2.0 * np.eye(2), atol=1e-6)


def test_at_map_recovers_spd_factor():
    p = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = np.random.default_rng(6).standard_normal((20000, 2))
    a = at_map(x, x @ p.T).matrix
    assert np.linalg.norm(a - p) / np.linalg.norm(p) <= 0.05


def test_at_map_error_shrinks_with_samples():
    # target drawn independently through the map, so both moment estimates
    # carry sampling error; quadrupling n should then roughly halve the mean
    # recovery error
    small = []
    large = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        t = random_spd(rng, 3)
        x = rng.standard_normal((8000, 3))
        y = rng.standard_normal((8000, 3)) @ t.T
        small.append(np.linalg.norm(at_map(x[:2000], y[:2000]).matrix - t))
        large.append(np.linalg.norm(at_map(x, y).matrix - t))
    assert np.mean(large) <= 0.75 * np.mean(small)


def test_at_map_rejects_bad_inputs():
    x = np.zeros((5, 2))
    with pytest.raises(TooFewSamples):
        at_map(x[:1], x)
    with pytest.raises(DimensionMismatch):
        at_map(np.zeros((5, 2)), np.zeros((5, 3)))


def test_gaussian_w2_lower_bounds_empirical_w2():
    # non-Gaussian data: the normal approximations can only get closer
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, size=(1000, 3))
    y = rng.uniform(-0.5, 1.5, size=(1000, 3)) * np.array([2.0, 1.0, 0.5])
    mx, my = estimate_moments(x), estimate_moments(y)
    w2_gauss = gaussian_w2(
        GaussianModel(mx.mean, mx.covariance), GaussianModel(my.mean, my.covariance)
    )
    w2_emp = empirical_w2(x, y)
    assert w2_gauss <= 1.05 * w2_emp


def test_gap_bound_identity_covariances():
    d = 3
    p = _gauss(np.zeros(d), np.eye(d))
    assert abs(gelbrich_gap_bound(p, p) - np.sqrt(2.0 * d)) <= 1e-9


def test_gap_bound_point_mass_target():
    p = _gauss([0.0, 0.0], np.eye(2))
    q = _gauss([0.0, 0.0], np.zeros((2, 2)))
    assert gelbrich_gap_bound(p, q) == 0.0


def test_gap_bound_swapped_diagonals():
    p = _gauss([0.0, 0.0], np.diag([1.0, 4.0]))
    q = _gauss([0.0, 0.0], np.diag([4.0, 1.0]))
    assert abs(gelbrich_gap_bound(p, q) - 8.0 / np.sqrt(10.0)) <= 1e-9


def test_gap_bound_rejects_two_point_masses():
    p = _gauss([0.0], [[0.0]])
    with pytest.raises(DegenerateInput):
        gelbrich_gap_bound(p, p)


def test_gap_bound_brackets_empirical_distance():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.0, 1.0, size=(1000, 3))
    y = rng.uniform(-1.5, 0.5, size=(1000, 3)) * np.array([0.5, 2.0, 1.0])
    mx, my = estimate_moments(x), estimate_moments(y)
    px = GaussianModel(mx.mean, mx.covariance)
    py = GaussianModel(my.mean, my.covariance)
    w2_emp = empirical_w2(x, y)
    gap = abs(gaussian_w2(px, py) - w2_emp)
    assert gap <= 1.05 * gelbrich_gap_bound(px, py)


def test_normal_bound_zero_matrix():
    assert normal_approx_bound(np.zeros((2, 2))) == 0.0


def test_normal_bound_identity():
    assert abs(normal_approx_bound(np.eye(2)) - 2.0) <= 1e-12


def test_normal_bound_diagonal():
    assert abs(normal_approx_bound(np.diag([3.0, 6.0])) - np.sqrt(18.0)) <= 1e-12


def _plain_moments(*sides):
    # the definition the chunked reducer must match: centre the side-by-side
    # rows in one copy and take their Gram
    z = np.concatenate(sides, axis=-1)
    z = z - z.mean(axis=-2, keepdims=True)
    return np.swapaxes(z, -1, -2) @ z


@pytest.mark.parametrize("stack", [(), (3,)], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("widths", [(3,), (3, 3)], ids=["one-side", "two-sides"])
def test_chunked_moments_match_the_plain_gram(widths, stack):
    step = _GRAM_CHUNK // (8 * sum(widths))
    rng = np.random.default_rng(11)
    for n in (2, step - 1, step, step + 1, 3 * step + 5):
        sides = [rng.normal(5.0, 2.0, size=(*stack, n, w)) for w in widths]
        got_n, means, gram = _moments(*sides)
        assert got_n == n
        for side, mean in zip(sides, means):
            np.testing.assert_allclose(mean, side.mean(axis=-2), rtol=1e-15)
        want = _plain_moments(*sides)
        assert gram.shape == want.shape
        assert np.abs(gram - want).max() <= 1e-12 * np.abs(want).max(), n


def test_moments_of_zero_width_samples_are_empty():
    model = estimate_moments(np.zeros((5, 0)))
    assert model.mean.shape == (0,) and model.covariance.shape == (0, 0)
