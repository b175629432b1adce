"""Tests for the exact empirical W2 solver, its oracles, and pointwise errors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affine_transport import (
    DimensionMismatch,
    MAX_EXACT,
    NonFinite,
    PairingMismatch,
    TooLarge,
    apply,
    at_map,
    empirical_w2,
    evaluate_pointwise,
    fit,
    pointwise_error,
)
from helpers import MAX_BRUTE, brute_force_w2, puck_pair, scipy_w2

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
    with pytest.raises(PairingMismatch, match="^cannot transport between empty sample sets$"):
        empirical_w2(np.empty((0, 2)), np.empty((0, 2)))


def test_overflowing_distances():
    # finite points whose squared distance overflows
    with pytest.raises(NonFinite, match="^squared distances between the sample sets overflow$"):
        empirical_w2([[1e200, 0.0], [0.0, 0.0]], [[-1e200, 0.0], [0.0, 0.0]])


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


def _tied(rng, n, d, distinct):
    """n rows drawn from ``distinct`` points, so rows repeat and costs tie."""
    return rng.standard_normal((distinct, d))[rng.integers(0, distinct, size=n)]


# inputs on which an auction without guards hangs, warns or overflows: zero
# costs give a zero step, a single column has no second-best value, equal
# costs and repeated rows make bids tie, so a round assigns few rows, and
# costs above half the float max overflow once the prices are added
EDGE_CASES = {
    "all-zero": (np.zeros((5, 2)), np.zeros((5, 2))),
    "all-equal": (np.zeros((6, 2)), np.ones((6, 2))),
    "all-equal-300": (np.zeros((300, 3)), np.full((300, 3), 2.0)),
    "n=1": (np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]])),
    "n=2": (np.array([[0.0], [1.0]]), np.array([[3.0], [2.0]])),
    "repeated-rows": (
        _tied(np.random.default_rng(5), 40, 3, 4), _tied(np.random.default_rng(6), 40, 3, 5)
    ),
    "near-float-max": (
        np.array([[0.0], [1.3e154], [0.5e154]]), np.array([[1.3e154], [0.0], [0.2e154]])
    ),
    "near-float-max-2d": (
        np.random.default_rng(7).uniform(-4.7e153, 4.7e153, (50, 2)),
        np.random.default_rng(8).uniform(-4.7e153, 4.7e153, (50, 2)),
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_warm_start_edge_cases_give_the_plain_solve(case):
    x, y = EDGE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = empirical_w2(x, y)
    assert got.hex() == scipy_w2(x, y).hex()


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(2, 300), st.integers(1, 6), st.sampled_from([1, 2, 5, 0]))
def test_warm_start_matches_the_plain_solve(seed, n, d, distinct):
    # distinct = 0 draws every row afresh; otherwise rows repeat
    rng = np.random.default_rng(seed)
    if distinct:
        x, y = _tied(rng, n, d, distinct), _tied(rng, n, d, distinct + 1)
    else:
        x, y = rng.standard_normal((n, d)), 2.0 * rng.standard_normal((n, d)) + 0.5
    expected = scipy_w2(x, y)
    assert abs(empirical_w2(x, y) - expected) <= 1e-12 * expected


def test_warm_start_matches_the_plain_solve_bit_for_bit_on_a_puck_job():
    # the four solves of fit, eval and score on the puck pair at n=1024
    src, tgt = puck_pair(3, 1024, noise=0.01)
    hold_s, hold_t = puck_pair(1003, 1024, noise=0.01)
    model = fit(src, tgt)
    problems = {
        "fit": (apply(model, src.rows), tgt.rows),
        "eval-before": (hold_s.rows, hold_t.rows),
        "eval-after": (evaluate_pointwise(model, hold_s, hold_t)[2], hold_t.rows),
        "score": (at_map(src.rows, tgt.rows).apply(src.rows), tgt.rows),
    }
    for name, (x, y) in problems.items():
        assert empirical_w2(x, y).hex() == scipy_w2(x, y).hex(), name


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


def test_pointwise_rejects_an_overflowing_error():
    # each row's error is finite or inf; their mean is inf and their std NaN
    with pytest.raises(NonFinite, match="^predicted next-state errors overflow$"):
        pointwise_error([[1e308, 0.0], [0.0, 0.0]], [[-1e308, 0.0], [0.0, 0.0]])


def test_pointwise_shape_mismatch():
    with pytest.raises(PairingMismatch):
        pointwise_error(np.zeros((3, 2)), np.zeros((4, 2)))
