"""Tests for the dense linear algebra primitives, moment estimation, and the
one sample-matrix gate every sample-set entry point goes through."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affine_transport import (
    DimensionMismatch,
    IndefiniteMatrix,
    NonFinite,
    NotSymmetric,
    TooFewSamples,
    affinity_score,
    at_map,
    empirical_w2,
    estimate_moments,
    pointwise_error,
    procrustes,
    spd_sqrt,
)
from helpers import random_spd, spd_inv_sqrt

seeds = st.integers(0, 2**32 - 1)


def test_sqrt_identity():
    np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_sqrt_diagonal():
    np.testing.assert_allclose(
        spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_sqrt_reconstructs_two_by_two():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    # eigenvalues 1 and 3 along (1,-1) and (1,1)
    np.testing.assert_allclose(np.linalg.eigvalsh(m), [1.0, 3.0], atol=1e-12)
    s = spd_sqrt(m)
    assert np.linalg.norm(s @ s - m) <= 1e-8 * (1.0 + np.linalg.norm(m))


def test_sqrt_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        spd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    message = r"^spd_sqrt input must be a square matrix, got shape \(2, 3\)$"
    with pytest.raises(NotSymmetric, match=message):
        spd_sqrt(np.zeros((2, 3)))


def test_sqrt_rejects_indefinite():
    with pytest.raises(IndefiniteMatrix):
        spd_sqrt(np.diag([1.0, -0.1]))


def _message(call, *args, **kwargs):
    with pytest.raises(Exception) as info:
        call(*args, **kwargs)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "bad, require_invertible",
    [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), False),
        (np.diag([1.0, -0.1]), False),
        (np.diag([1.0, 0.0]), True),
    ],
    ids=["asymmetric", "indefinite", "singular"],
)
def test_stacked_root_reports_the_first_failing_matrix(bad, require_invertible):
    from affine_transport.linalg import _root

    # the stack raises what its first failing matrix raises on its own
    stack = np.stack([np.eye(2), bad, 2.0 * bad])
    want = _message(_root, bad, "m", require_invertible=require_invertible)
    assert _message(_root, stack, "m", require_invertible=require_invertible) == want


def test_stacked_sqrt_is_each_matrix_sqrt_bit_for_bit():
    rng = np.random.default_rng(4)
    stack = np.stack([random_spd(rng, 4) for _ in range(5)])
    roots = spd_sqrt(stack)
    for m, root in zip(stack, roots):
        np.testing.assert_array_equal(root, spd_sqrt(m))


def test_inv_sqrt_identity():
    np.testing.assert_allclose(spd_inv_sqrt(np.eye(2)), np.eye(2), atol=1e-12)


def test_inv_sqrt_diagonal():
    np.testing.assert_allclose(
        spd_inv_sqrt(np.diag([4.0, 16.0])), np.diag([0.5, 0.25]), atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 6))
def test_sqrt_squares_back(seed, d):
    m = random_spd(np.random.default_rng(seed), d)
    s = spd_sqrt(m)
    assert np.linalg.norm(s @ s - m) <= 1e-8 * (1.0 + np.linalg.norm(m))
    assert np.linalg.eigvalsh(s)[0] >= 0.0


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 6))
def test_inv_sqrt_whitens(seed, d):
    m = random_spd(np.random.default_rng(seed), d)
    s = spd_inv_sqrt(m)
    assert np.linalg.norm(s @ m @ s - np.eye(d)) <= 1e-6 * d


def test_moments_two_points():
    est = estimate_moments(np.array([[0.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_allclose(est.mean, [1.0, 0.0], atol=1e-15)
    # 1/n divisor: covariance diag(1, 0) before the ridge
    np.testing.assert_allclose(est.covariance, np.diag([1.0, 0.0]), atol=1e-8)
    assert est.covariance[1, 1] > 0.0


def test_moments_repeated_point():
    est = estimate_moments(np.tile([3.0, -1.0], (5, 1)))
    np.testing.assert_allclose(est.covariance, 1e-10 * np.eye(2), rtol=1e-12)


def test_moments_one_dimensional_input():
    est = estimate_moments(np.array([0.0, 2.0]))
    assert est.dim == 1
    np.testing.assert_allclose(est.mean, [1.0])
    np.testing.assert_allclose(est.covariance, [[1.0]], atol=1e-8)


def test_moments_concentration():
    draws = np.random.default_rng(20260822).standard_normal((100000, 3))
    est = estimate_moments(draws)
    assert np.linalg.norm(est.covariance - np.eye(3)) <= 0.05


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 5))
def test_moments_translation_equivariant(seed, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((100, d))
    v = rng.uniform(-2.0, 2.0, size=d)
    base = estimate_moments(x)
    shifted = estimate_moments(x + v)
    np.testing.assert_allclose(shifted.mean, base.mean + v, atol=1e-12)
    np.testing.assert_allclose(shifted.covariance, base.covariance, atol=1e-12)


def test_moments_rejects_single_sample():
    with pytest.raises(TooFewSamples):
        estimate_moments(np.zeros((1, 2)))


def test_moments_rejects_non_finite():
    with pytest.raises(NonFinite):
        estimate_moments(np.array([[0.0], [np.inf]]))


# every entry point that takes sample sets, called on a pair of them
GATED = {
    "estimate_moments": lambda x, y: (estimate_moments(x), estimate_moments(y)),
    "at_map": at_map,
    "empirical_w2": empirical_w2,
    "pointwise_error": pointwise_error,
    "affinity_score": affinity_score,
}


def _good(width=2):
    return np.random.default_rng(3).standard_normal((4, width))


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("name", sorted(GATED))
def test_gate_rejects_three_dimensional_input(name, side):
    args = [_good(), _good()]
    args[side] = np.zeros((4, 2, 1))
    with pytest.raises(DimensionMismatch):
        GATED[name](*args)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("name", sorted(GATED))
def test_gate_rejects_nan_entry(name, side):
    args = [_good(), _good()]
    args[side][1, 0] = np.nan
    with pytest.raises(NonFinite):
        GATED[name](*args)


@pytest.mark.parametrize("name", sorted(set(GATED) - {"estimate_moments"}))
def test_gate_rejects_width_mismatch(name):
    with pytest.raises(DimensionMismatch):
        GATED[name](_good(2), _good(3))


def test_procrustes_rejects_non_finite():
    a = _good().T
    b = a.copy()
    b[0, 1] = np.nan
    with pytest.raises(NonFinite):
        procrustes(a, b)
