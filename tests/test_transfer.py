"""Tests for Procrustes-aligned transfer fitting, scoring, and serialization."""

import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from affine_transport import (
    AffineMap,
    DegenerateInput,
    DimensionMismatch,
    FitMeta,
    MalformedModel,
    NonFinite,
    PairingMismatch,
    TooFewSamples,
    TransferModel,
    TransitionDataset,
    apply,
    affinity_score,
    evaluate,
    evaluate_pointwise,
    fit,
    load_model,
    procrustes,
    save_model,
    subset,
)
from helpers import (
    affine_rows_pair,
    linear_pair,
    puck_pair,
    random_orthogonal,
    random_spd,
    sample_fit,
)


def _identity_model(state_dim=1, action_dim=1):
    width = 2 * state_dim + action_dim
    meta = FitMeta(n_fit=2, seed=None, source_hash="", target_hash="")
    return TransferModel(
        np.eye(width), AffineMap(np.eye(width), np.zeros(width)), state_dim, action_dim, meta
    )


def test_procrustes_identity():
    a = np.random.default_rng(0).standard_normal((3, 10))
    np.testing.assert_allclose(procrustes(a, a), np.eye(3), atol=1e-10)


def test_procrustes_quarter_turn():
    a = np.eye(2)
    b = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(procrustes(a, b), b, atol=1e-12)


def test_procrustes_recovers_random_rotation():
    rng = np.random.default_rng(1)
    q = random_orthogonal(rng, 4)
    a = rng.standard_normal((4, 50))
    r = procrustes(a, q @ a)
    np.testing.assert_allclose(r, q, atol=1e-8)
    assert np.linalg.norm(r @ a - q @ a) <= 1e-8


def test_procrustes_recovers_reflection():
    rng = np.random.default_rng(2)
    q = random_orthogonal(rng, 3)
    q[0] *= -1.0  # force determinant -1
    a = rng.standard_normal((3, 40))
    np.testing.assert_allclose(procrustes(a, q @ a), q, atol=1e-8)


def test_procrustes_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        procrustes(np.zeros((2, 5)), np.zeros((2, 6)))
    with pytest.raises(DimensionMismatch):
        procrustes(np.zeros(5), np.zeros(5))


def test_fit_on_identical_datasets():
    # noise makes the rows full rank; on rank-deficient data the alignment is
    # only determined on the support, so the matrix itself need not be I there
    src, _ = linear_pair(0, 1000, noise=0.05)
    model = fit(src, src)
    width = src.width
    assert np.linalg.norm(model.composed.matrix - np.eye(width)) <= 1e-4
    assert np.linalg.norm(model.composed.offset) <= 1e-4
    assert model.meta.n_fit == 1000
    assert model.meta.source_hash == model.meta.target_hash


def test_fit_recovers_spd_map():
    p = random_spd(np.random.default_rng(3), 5, spread=3.0)
    src, tgt = affine_rows_pair(3, 20000, 2, 1, p)
    model = fit(src, tgt)
    assert np.linalg.norm(model.composed.matrix - p) / np.linalg.norm(p) <= 0.05


def test_fit_recovers_general_affine_map():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 4))
    assert np.linalg.cond(m) < 50.0
    b = rng.standard_normal(4)
    src, tgt = affine_rows_pair(4, 20000, 1, 2, m, b)
    model = fit(src, tgt)
    assert np.linalg.norm(model.composed.matrix - m) / np.linalg.norm(m) <= 0.08
    assert np.linalg.norm(model.composed.offset - b) <= 0.05 * np.linalg.norm(b)


def test_fit_agrees_with_least_squares():
    # the exact affine relation is also recoverable by plain regression
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    src, tgt = affine_rows_pair(5, 20000, 1, 2, m, b)
    model = fit(src, tgt)
    design = np.hstack([src.rows, np.ones((src.n, 1))])
    coef, *_ = np.linalg.lstsq(design, tgt.rows, rcond=None)
    m_ls = coef[:-1].T
    assert np.linalg.norm(model.composed.matrix - m_ls) / np.linalg.norm(m_ls) <= 0.08


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    state_dim=st.integers(1, 3),
    action_dim=st.integers(1, 3),
    rows_per_column=st.integers(4, 40),
    zero_states=st.booleans(),
)
def test_fit_matches_the_sample_based_fit(seed, state_dim, action_dim, rows_per_column,
                                         zero_states):
    # a noisy affine image of random rows; with zero_states both sides start
    # from an identically zero state block, as the puck pair does
    rng = np.random.default_rng(seed)
    width = 2 * state_dim + action_dim
    n = rows_per_column * width
    x = rng.standard_normal((n, width)) * rng.uniform(0.5, 2.0, width) + rng.standard_normal(width)
    matrix = random_orthogonal(rng, width) @ random_spd(rng, width)
    y = x @ matrix.T + rng.standard_normal(width) + 0.05 * rng.standard_normal((n, width))
    if zero_states:
        x[:, :state_dim] = 0.0
        y[:, :state_dim] = 0.0
    model = fit(TransitionDataset(state_dim, action_dim, x),
                TransitionDataset(state_dim, action_dim, y))
    got = (model.rotation, model.at.matrix, model.at.offset)
    for name, value, want in zip("RAb", got, sample_fit(x, y)):
        err = np.linalg.norm(value - want) / np.linalg.norm(want)
        assert err <= 1e-12, f"{name} is {err:.2e} from the sample-based fit"


def test_fit_rejects_mismatched_data():
    src, tgt = linear_pair(0, 50)
    with pytest.raises(PairingMismatch):
        fit(src, TransitionDataset(3, 2, tgt.rows[:40], "short", 0))
    puck_src, _ = puck_pair(0, 50)
    with pytest.raises(DimensionMismatch):
        fit(src, puck_src)
    with pytest.raises(TooFewSamples):
        fit(
            TransitionDataset(3, 2, src.rows[:1], "tiny", 0),
            TransitionDataset(3, 2, tgt.rows[:1], "tiny", 0),
        )


def test_apply_identity_model():
    model = _identity_model()
    x = np.random.default_rng(6).standard_normal((7, 3))
    np.testing.assert_array_equal(apply(model, x), x)
    # one triplet is read as one row
    np.testing.assert_array_equal(apply(model, x[0]), x[:1], strict=True)


def test_apply_scaling_model():
    meta = FitMeta(n_fit=2, seed=None, source_hash="", target_hash="")
    model = TransferModel(
        np.eye(3), AffineMap(2.0 * np.eye(3), np.zeros(3)), 1, 1, meta
    )
    np.testing.assert_allclose(apply(model, np.ones((1, 3))), 2.0 * np.ones((1, 3)))


def test_apply_rejects_wrong_width():
    with pytest.raises(DimensionMismatch):
        apply(_identity_model(), np.zeros((4, 5)))


def test_composed_equals_rotation_then_transport():
    src, tgt = linear_pair(7, 400, noise=0.05, target_scales=np.array([2.0, 0.5, 1.0]))
    model = fit(src, tgt)
    x = np.random.default_rng(8).standard_normal((20, src.width))
    via_composed = model.composed.apply(x)
    via_stages = model.at.apply(x @ model.rotation.T)
    np.testing.assert_allclose(via_composed, via_stages, rtol=1e-12, atol=1e-12)


def test_model_constructor_rejects_tampering():
    good = _identity_model()
    skew = np.eye(3)
    skew[0, 1] = 0.5
    with pytest.raises(MalformedModel):
        TransferModel(skew, good.at, 1, 1, good.meta)
    with pytest.raises(MalformedModel):
        TransferModel(np.eye(3), AffineMap(skew, np.zeros(3)), 1, 1, good.meta)
    with pytest.raises(MalformedModel):
        TransferModel(np.eye(3), AffineMap(np.diag([1.0, 1.0, -1.0]), np.zeros(3)), 1, 1, good.meta)
    nan = np.full((3, 3), np.nan)
    with pytest.raises(MalformedModel, match="^rotation contains NaN or infinite entries$"):
        TransferModel(nan, good.at, 1, 1, good.meta)
    for a in (nan, np.diag([1.0, np.inf, 1.0])):
        with pytest.raises(
            MalformedModel, match="^transport matrix contains NaN or infinite entries$"
        ):
            TransferModel(np.eye(3), AffineMap(a, np.zeros(3)), 1, 1, good.meta)
    for offset in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(MalformedModel, match="^offset contains NaN or infinite entries$"):
            TransferModel(np.eye(3), AffineMap(np.eye(3), offset), 1, 1, good.meta)
    with pytest.raises(MalformedModel, match=r"^rotation has shape \(2, 2\), expected \(3, 3\)$"):
        TransferModel(np.eye(2), good.at, 1, 1, good.meta)
    with pytest.raises(
        MalformedModel, match=r"^transport matrix has shape \(2, 2\), expected \(3, 3\)$"
    ):
        TransferModel(np.eye(3), AffineMap(np.eye(2), np.zeros(2)), 1, 1, good.meta)


@pytest.mark.parametrize("which", ["rotation", "asymmetric", "indefinite", "offset"])
def test_stacked_model_checks_report_the_first_failing_map(which):
    from affine_transport.transfer import _check_maps

    skew = np.eye(3)
    skew[0, 1] = 0.5
    eye, zero = np.eye(3), np.zeros(3)
    r, a, b = {
        "rotation": (skew, eye, zero),
        "asymmetric": (eye, skew, zero),
        "indefinite": (eye, np.diag([1.0, 1.0, -1.0]), zero),
        "offset": (eye, eye, np.array([np.nan, 0.0, 0.0])),
    }[which]
    meta = FitMeta(n_fit=2, seed=None, source_hash="", target_hash="")
    with pytest.raises(MalformedModel) as single:
        TransferModel(r, AffineMap(a, b), 1, 1, meta)
    # the third map fails the same check as the second, with another value
    r2 = 2.0 * r if which == "rotation" else r
    with pytest.raises(MalformedModel) as stacked:
        _check_maps(np.stack([eye, r, r2]), np.stack([eye, a, 2.0 * a]), np.stack([zero, b, -b]))
    assert str(stacked.value) == str(single.value)


def test_affinity_identical_sets():
    y = np.random.default_rng(9).standard_normal((100, 3))
    assert affinity_score(y, y) == 1.0


def test_affinity_clamps_to_zero():
    y = np.random.default_rng(10).standard_normal((100, 3))
    assert affinity_score(y + 1000.0, y) == 0.0


def test_affinity_high_for_affine_pair():
    src, tgt = linear_pair(11, 500, target_scales=np.array([1.5, 0.7, 2.0]))
    model = fit(src, tgt)
    assert affinity_score(apply(model, src.rows), tgt.rows) >= 0.95


def test_affinity_rejects_constant_target():
    for target in (np.ones((10, 2)), np.full((10, 2), 0.1)):
        with pytest.raises(DegenerateInput):
            affinity_score(np.zeros((10, 2)), target)
    with pytest.raises(PairingMismatch):
        affinity_score(np.zeros((10, 2)), np.zeros((9, 2)))


def test_fit_and_evaluate_reject_constant_target_before_any_solve(monkeypatch):
    import affine_transport.discrete_ot as discrete_ot

    def refuse(*args, **kwargs):
        raise AssertionError("an assignment solve ran")

    monkeypatch.setattr(discrete_ot, "linear_sum_assignment", refuse)
    src, tgt = linear_pair(13, 50)
    model = fit(src, tgt)
    rows = np.ones((50, 8))
    rows[::2, 0], rows[1::2, 0] = -0.0, 0.0  # equal, though their bits differ
    for value in (1.0, 0.1):
        constant = TransitionDataset(3, 2, rows * value)
        with pytest.raises(DegenerateInput, match="target samples are all identical"):
            fit(src, constant)
        with pytest.raises(DegenerateInput, match="target samples are all identical"):
            evaluate(model, src, constant)
    # one differing cell is spread enough
    spread = rows.copy()
    spread[7, 5] = 2.0
    assert fit(src, TransitionDataset(3, 2, spread)).meta.n_fit == 50


def test_evaluate_on_fit_data_flag():
    src, tgt = linear_pair(12, 300, target_scales=np.array([2.0, 1.0, 0.5]))
    model = fit(src, tgt)
    in_sample = evaluate(model, src, tgt)
    assert in_sample.eval_on_fit_data
    assert in_sample.n_fit == 300 and in_sample.n_eval == 300
    fresh_src, fresh_tgt = linear_pair(13, 300, target_scales=np.array([2.0, 1.0, 0.5]))
    held_out = evaluate(model, fresh_src, fresh_tgt)
    assert not held_out.eval_on_fit_data


def test_evaluate_identity_pair():
    src, _ = linear_pair(14, 400)
    model = fit(src, src)
    report = evaluate(model, src, src)
    assert (report.error_before_mean, report.error_before_std) == (0.0, 0.0)
    assert report.error_after_mean <= 1e-6
    assert report.rho_aff >= 0.999


def test_evaluate_reduces_error_on_affine_pair():
    src, tgt = linear_pair(15, 600, target_scales=np.array([2.5, 0.4, 1.2]), target_inverted=(0,))
    fit_s, eval_s = TransitionDataset(3, 2, src.rows[:400], "s", 15), TransitionDataset(3, 2, src.rows[400:], "s", 15)
    fit_t, eval_t = TransitionDataset(3, 2, tgt.rows[:400], "t", 15), TransitionDataset(3, 2, tgt.rows[400:], "t", 15)
    report = evaluate(fit(fit_s, fit_t), eval_s, eval_t)
    assert report.error_after_mean < report.error_before_mean
    assert not report.eval_on_fit_data


def test_pointwise_part_matches_evaluate_bit_for_bit():
    for src, tgt in (
        linear_pair(18, 300, noise=0.02, target_scales=np.array([1.8, 0.6, 1.1])),
        puck_pair(19, 300, noise=0.01),
    ):
        model = fit(src, tgt)
        rows = np.arange(299, 99, -1)
        held_s, held_t = subset(src, rows), subset(tgt, rows)
        report = evaluate(model, held_s, held_t)
        before, after, transported = evaluate_pointwise(model, held_s, held_t)
        assert before == (report.error_before_mean, report.error_before_std)
        assert after == (report.error_after_mean, report.error_after_std)
        np.testing.assert_array_equal(transported, apply(model, held_s.rows))


def test_pointwise_part_runs_the_input_checks():
    src, tgt = linear_pair(20, 50)
    model = fit(src, tgt)
    short = TransitionDataset(3, 2, tgt.rows[:40], "t", 20)
    with pytest.raises(PairingMismatch):
        evaluate_pointwise(model, src, short)
    puck_s, puck_t = puck_pair(20, 50)
    with pytest.raises(DimensionMismatch):
        evaluate_pointwise(model, puck_s, puck_t)


def test_pointwise_part_rejects_an_overflowing_error():
    # one entry edited in one row of both sides: every entry stays finite, but
    # a next-state error overflows; no (inf, nan) statistics come back
    src, tgt = puck_pair(3, 512, noise=0.01)
    model = fit(src, tgt)

    def edited(data, column, value):
        rows = data.rows.copy()
        rows[7, column] = value
        return TransitionDataset(data.state_dim, data.action_dim, rows, data.domain_label)

    # a0 = 1e308 (columns s0, s1, a0, ...): the predicted next state is finite
    with pytest.raises(NonFinite, match="^transported next-state errors overflow$"):
        evaluate_pointwise(model, edited(src, 2, 1e308), edited(tgt, 2, 1e308))
    # next states of +-1e200: the error before transport overflows
    with pytest.raises(NonFinite, match="^source next-state errors overflow$"):
        evaluate_pointwise(model, edited(src, -1, 1e200), edited(tgt, -1, -1e200))


def test_transported_distance_stays_under_budget():
    # post-transport W2 never exceeds the reported bound by more than 10%
    for src, tgt in (
        linear_pair(16, 300, noise=0.02, target_scales=np.array([1.8, 0.6, 1.1])),
        puck_pair(17, 300, noise=0.01),
    ):
        report = evaluate(fit(src, tgt), src, tgt)
        assert report.w2_after <= 1.1 * report.bound_value
        assert 0.0 <= report.rho_aff <= 1.0


def test_fit_is_equivariant_under_basis_change():
    src, tgt = linear_pair(18, 2000, noise=0.01, target_scales=np.array([2.0, 0.7, 1.3]))
    base = fit(src, tgt).composed.matrix
    w = random_orthogonal(np.random.default_rng(19), src.width)
    src_w = TransitionDataset(3, 2, src.rows @ w.T, "source", 18)
    tgt_w = TransitionDataset(3, 2, tgt.rows @ w.T, "target", 18)
    conjugated = fit(src_w, tgt_w).composed.matrix
    np.testing.assert_allclose(conjugated, w @ base @ w.T, atol=1e-6)


def test_fit_error_shrinks_with_samples():
    # exact affine pairs keep the whole matrix identified (independent noise
    # would leave the alignment free on the noise subspace), so the fit error
    # is pure sampling error and should halve when n quadruples
    rng = np.random.default_rng(20)
    u = random_orthogonal(rng, 8)
    v = random_orthogonal(rng, 8)
    m = (u * np.exp(rng.uniform(-np.log(2.0), np.log(2.0), 8))) @ v.T
    b = rng.normal(size=8)

    def fit_error(seed, n):
        src, tgt = affine_rows_pair(seed, n, 3, 2, m, offset=b)
        return np.linalg.norm(fit(src, tgt).composed.matrix - m)

    small = [fit_error(s, 500) for s in range(20)]
    large = [fit_error(s, 2000) for s in range(20)]
    assert np.mean(large) <= 0.6 * np.mean(small)


def test_save_load_round_trip(tmp_path):
    src, tgt = puck_pair(22, 200)
    model = fit(src, tgt)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.rotation, model.rotation)
    np.testing.assert_array_equal(back.at.matrix, model.at.matrix)
    np.testing.assert_array_equal(back.at.offset, model.at.offset)
    assert back.meta == model.meta
    assert (back.state_dim, back.action_dim) == (2, 2)


def test_save_is_deterministic(tmp_path):
    src, tgt = puck_pair(23, 100)
    model = fit(src, tgt)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def _saved_doc(tmp_path):
    src, tgt = puck_pair(24, 100)
    path = tmp_path / "model.json"
    save_model(fit(src, tgt), path)
    return path, json.loads(path.read_text())


def test_load_rejects_tampered_rotation(tmp_path):
    path, doc = _saved_doc(tmp_path)
    doc["R"][0] += 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModel):
        load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    path, doc = _saved_doc(tmp_path)
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModel, match="version"):
        load_model(path)


def test_load_rejects_missing_field(tmp_path):
    path, doc = _saved_doc(tmp_path)
    del doc["b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModel):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    path, _ = _saved_doc(tmp_path)
    path.write_text(path.read_text()[:50])
    with pytest.raises(MalformedModel):
        load_model(path)


def test_load_rejects_inconsistent_dims(tmp_path):
    path, doc = _saved_doc(tmp_path)
    doc["dim"] = 7
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModel):
        load_model(path)
