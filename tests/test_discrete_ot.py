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
    empirical_w2,
    pointwise_error,
)
from helpers import MAX_BRUTE, brute_force_w2

seeds = st.integers(0, 2**32 - 1)


def test_identical_sets():
    x = np.random.default_rng(0).standard_normal((10, 2))
    assert empirical_w2(x, x) == 0.0


def test_two_point_line():
    # matching 0->2, 1->3 costs (4+4)/2 = 4; crossing costs (9+1)/2 = 5
    assert empirical_w2(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == 2.0


def test_shifted_triangle():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w2 = empirical_w2(x, x + 5.0)
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


def test_solve_goes_through_the_module_level_names(monkeypatch):
    # the benchmark tracer's cost-matrix and assignment spans wrap these two
    # names, so the solve must look them up on the module at each call
    import affine_transport.discrete_ot as discrete_ot

    rng = np.random.default_rng(12)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 3))
    expected = empirical_w2(x, y)
    calls = []
    for name in ("cdist", "linear_sum_assignment"):
        original = getattr(discrete_ot, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(discrete_ot, name, counted)
    got = empirical_w2(x, y)
    assert calls == ["cdist", "linear_sum_assignment"]
    assert got.hex() == expected.hex()


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
        w2 = empirical_w2(x, y)
        assert abs(w2 - brute_force_w2(x, y)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3))
def test_empirical_w2_symmetric(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.uniform(-3.0, 3.0, size=(n, d))
    assert abs(empirical_w2(x, y) - empirical_w2(y, x)) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3))
def test_empirical_w2_triangle_inequality(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.uniform(-3.0, 3.0, size=(n, d))
    z = rng.uniform(-3.0, 3.0, size=(n, d))
    assert empirical_w2(x, z) <= empirical_w2(x, y) + empirical_w2(y, z) + 1e-8


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3))
def test_empirical_w2_translation_invariant(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.uniform(-3.0, 3.0, size=(n, d))
    v = rng.uniform(-1.0, 1.0, size=d)
    assert abs(empirical_w2(x + v, y + v) - empirical_w2(x, y)) <= 1e-9


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


def test_pointwise_errors_are_the_row_norms_bit_for_bit():
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((257, 5)), 1e3 * rng.standard_normal((257, 5))
    np.testing.assert_array_equal(pointwise_error(x, y)[2], np.linalg.norm(x - y, axis=1))


def test_pointwise_shape_mismatch():
    with pytest.raises(PairingMismatch):
        pointwise_error(np.zeros((3, 2)), np.zeros((4, 2)))
