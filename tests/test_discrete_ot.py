"""Tests for the exact empirical W2 solver, its oracle, and pointwise errors."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affine_transport import (
    DimensionMismatch,
    MAX_EXACT,
    PairingMismatch,
    TooLarge,
    TransportPlan,
    empirical_w2,
    pointwise_error,
)
from helpers import MAX_BRUTE, brute_force_w2

seeds = st.integers(0, 2**32 - 1)


def test_identical_sets():
    x = np.random.default_rng(0).standard_normal((10, 2))
    w2, plan = empirical_w2(x, x)
    assert w2 == 0.0
    np.testing.assert_array_equal(plan.permutation, np.arange(10))


def test_two_point_line():
    w2, plan = empirical_w2(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    # matching 0->2, 1->3 costs (4+4)/2 = 4; crossing costs (9+1)/2 = 5
    assert w2 == 2.0
    assert plan.total_cost == 4.0
    np.testing.assert_array_equal(plan.permutation, [0, 1])


def test_shifted_triangle():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w2, _ = empirical_w2(x, x + 5.0)
    assert abs(w2 - np.sqrt(50.0)) <= 1e-12


def test_count_mismatch():
    with pytest.raises(PairingMismatch):
        empirical_w2(np.zeros((3, 1)), np.zeros((4, 1)))


def test_width_mismatch():
    with pytest.raises(DimensionMismatch):
        empirical_w2(np.zeros((3, 1)), np.zeros((3, 2)))


def test_solver_size_cap():
    big = np.zeros((MAX_EXACT + 1, 1))
    with pytest.raises(TooLarge):
        empirical_w2(big, big)


def test_oracle_identical_sets():
    x = np.random.default_rng(1).standard_normal((5, 2))
    assert brute_force_w2(x, x) == 0.0


def test_oracle_two_point_line():
    assert brute_force_w2(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == 2.0


def test_oracle_size_cap():
    big = np.zeros((MAX_BRUTE + 1, 1))
    with pytest.raises(TooLarge):
        brute_force_w2(big, big)


def test_solver_matches_oracle():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((n, d))
        w2, _ = empirical_w2(x, y)
        assert abs(w2 - brute_force_w2(x, y)) <= 1e-10


def test_plan_is_scaled_permutation():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((40, 2))
    _, plan = empirical_w2(x, y)
    # every source point goes to exactly one target point and every target
    # point receives exactly one: mass 1/40 on each of 40 pairs
    assert plan.permutation.shape == (40,)
    np.testing.assert_array_equal(np.bincount(plan.permutation, minlength=40), np.ones(40))


def test_plan_cost_consistent_with_coupling():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((25, 3))
    y = rng.standard_normal((25, 3))
    _, plan = empirical_w2(x, y)
    sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    matched = sq[np.arange(25), plan.permutation].sum() / 25
    assert abs(plan.total_cost - matched) <= 1e-12 * (1.0 + plan.total_cost)


def test_plan_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        TransportPlan(np.eye(2, dtype=int), 0.0)


def test_plan_rejects_broken_marginals():
    # target 0 would receive both points' mass and target 1 none
    with pytest.raises(ValueError):
        TransportPlan(np.array([0, 0]), 0.0)
    with pytest.raises(ValueError):
        TransportPlan(np.array([0, 2]), 0.0)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3))
def test_empirical_w2_symmetric(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.uniform(-3.0, 3.0, size=(n, d))
    assert abs(empirical_w2(x, y)[0] - empirical_w2(y, x)[0]) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3))
def test_empirical_w2_triangle_inequality(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.uniform(-3.0, 3.0, size=(n, d))
    z = rng.uniform(-3.0, 3.0, size=(n, d))
    assert empirical_w2(x, z)[0] <= empirical_w2(x, y)[0] + empirical_w2(y, z)[0] + 1e-8


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3))
def test_empirical_w2_translation_invariant(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.uniform(-3.0, 3.0, size=(n, d))
    v = rng.uniform(-1.0, 1.0, size=d)
    assert abs(empirical_w2(x + v, y + v)[0] - empirical_w2(x, y)[0]) <= 1e-9


def test_pointwise_identical():
    x = np.random.default_rng(2).standard_normal((6, 2))
    mean, std, per = pointwise_error(x, x)
    assert mean == 0.0 and std == 0.0
    np.testing.assert_array_equal(per, np.zeros(6))


def test_pointwise_scalar_pair():
    mean, std, per = pointwise_error(np.array([0.0, 0.0]), np.array([1.0, 3.0]))
    assert mean == 2.0
    assert std == 1.0
    np.testing.assert_array_equal(per, [1.0, 3.0])


def test_pointwise_single_row():
    mean, std, _ = pointwise_error(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert mean == 5.0
    assert std == 0.0


def test_pointwise_shape_mismatch():
    with pytest.raises(PairingMismatch):
        pointwise_error(np.zeros((3, 2)), np.zeros((4, 2)))
