"""Tests for dataset generators, CSV round trips, splits, and random streams."""

import numpy as np
import pytest

from affine_transport import (
    BadFraction,
    BadSpec,
    DimensionMismatch,
    DomainSpec,
    MalformedCsv,
    MissingManifest,
    NonFinite,
    TransitionDataset,
    dataset_fingerprint,
    gen_linear,
    gen_puck,
    load_csv,
    rng_stream,
    save_dataset,
    split,
    subset,
)

STOP_SLOW = 0.5096839959225282  # 1 / (2 * 0.1 * 9.81)
STOP_FAST = 0.12742099898063205  # 1 / (2 * 0.4 * 9.81)


def test_rng_stream_reproducible():
    a = rng_stream(7, "states").standard_normal(5)
    b = rng_stream(7, "states").standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_tags_are_independent():
    a = rng_stream(7, "states").standard_normal(5)
    b = rng_stream(7, "noise").standard_normal(5)
    assert not np.array_equal(a, b)


def test_rng_stream_rejects_negative_seed():
    with pytest.raises(BadSpec):
        rng_stream(-1, "states")


def test_dataset_blocks():
    rows = np.arange(12.0).reshape(2, 6)
    ds = TransitionDataset(2, 2, rows, "demo", 1)
    np.testing.assert_array_equal(ds.states, rows[:, :2])
    np.testing.assert_array_equal(ds.actions, rows[:, 2:4])
    np.testing.assert_array_equal(ds.next_states, rows[:, 4:])
    assert ds.n == 2 and ds.width == 6


def test_dataset_rejects_bad_width():
    with pytest.raises(DimensionMismatch):
        TransitionDataset(2, 2, np.zeros((3, 5)))


def test_dataset_rejects_non_finite():
    rows = np.zeros((2, 6))
    rows[1, 3] = np.nan
    with pytest.raises(NonFinite):
        TransitionDataset(2, 2, rows)


def test_dataset_rejects_bad_dims():
    with pytest.raises(BadSpec):
        TransitionDataset(0, 2, np.zeros((2, 2)))


def _linear_spec(label="domain", **kw):
    m = np.array([[0.5, 0.1], [0.0, -0.3]])
    b = np.array([[1.0], [2.0]])
    return DomainSpec("linear", label=label, dynamics=m, controls=b, **kw)


def test_gen_linear_plain_dynamics():
    spec = _linear_spec()
    actions = np.random.default_rng(1).standard_normal((50, 1))
    ds = gen_linear(spec, actions, 3)
    expected = ds.states @ spec.dynamics.T + actions @ spec.controls.T
    np.testing.assert_array_equal(ds.next_states, expected)
    np.testing.assert_array_equal(ds.actions, actions)


def test_gen_linear_inverts_all_rows():
    actions = np.random.default_rng(1).standard_normal((50, 1))
    plain = gen_linear(_linear_spec(), actions, 3)
    flipped = gen_linear(_linear_spec(inverted=(0, 1)), actions, 3)
    spec = _linear_spec()
    expected = -(flipped.states @ spec.dynamics.T) + actions @ spec.controls.T
    np.testing.assert_array_equal(flipped.next_states, expected)
    np.testing.assert_array_equal(flipped.states, plain.states)


def test_gen_linear_disabled_row_ignores_actions():
    a1 = np.random.default_rng(1).standard_normal((30, 1))
    a2 = np.random.default_rng(2).standard_normal((30, 1))
    d1 = gen_linear(_linear_spec(disabled=(0,)), a1, 3)
    d2 = gen_linear(_linear_spec(disabled=(0,)), a2, 3)
    np.testing.assert_array_equal(d1.next_states[:, 0], d2.next_states[:, 0])
    assert not np.array_equal(d1.next_states[:, 1], d2.next_states[:, 1])


def test_gen_linear_disabled_beats_inverted():
    actions = np.random.default_rng(1).standard_normal((30, 1))
    both = gen_linear(_linear_spec(inverted=(0,), disabled=(0,)), actions, 3)
    only_disabled = gen_linear(_linear_spec(disabled=(0,)), actions, 3)
    np.testing.assert_array_equal(both.rows, only_disabled.rows)


def test_gen_linear_scales_rows():
    actions = np.random.default_rng(1).standard_normal((20, 1))
    spec = _linear_spec(scales=np.array([2.0, 0.5]))
    ds = gen_linear(spec, actions, 3)
    base = _linear_spec()
    expected = ds.states @ (np.array([[2.0], [0.5]]) * base.dynamics).T
    expected = expected + actions @ base.controls.T
    np.testing.assert_array_equal(ds.next_states, expected)


def test_gen_linear_paired_domains_share_inputs():
    actions = np.random.default_rng(1).standard_normal((40, 1))
    src = gen_linear(_linear_spec("source", noise_std=0.1), actions, 9)
    tgt = gen_linear(_linear_spec("target", noise_std=0.1, scales=np.array([3.0, 1.0])), actions, 9)
    np.testing.assert_array_equal(src.states, tgt.states)
    np.testing.assert_array_equal(src.actions, tgt.actions)
    assert not np.array_equal(src.next_states, tgt.next_states)


def test_gen_linear_reproducible():
    actions = np.random.default_rng(1).standard_normal((40, 1))
    a = gen_linear(_linear_spec(noise_std=0.2), actions, 11)
    b = gen_linear(_linear_spec(noise_std=0.2), actions, 11)
    np.testing.assert_array_equal(a.rows, b.rows)


def test_gen_linear_rejects_bad_specs():
    actions = np.zeros((5, 1))
    with pytest.raises(BadSpec):
        gen_linear(DomainSpec("linear"), actions, 0)  # matrices missing
    with pytest.raises(BadSpec):
        gen_linear(_linear_spec(scales=np.array([1.0, -1.0])), actions, 0)
    with pytest.raises(BadSpec):
        gen_linear(_linear_spec(scales=np.array([1.0, 1.0, 1.0])), actions, 0)
    with pytest.raises(BadSpec):
        gen_linear(_linear_spec(inverted=(5,)), actions, 0)
    with pytest.raises(BadSpec):
        gen_linear(_linear_spec(), np.zeros((5, 3)), 0)  # wrong action width
    with pytest.raises(BadSpec):
        gen_linear(DomainSpec("puck"), actions, 0)  # wrong kind


def test_gen_puck_zero_launch_stays_put():
    ds = gen_puck(DomainSpec("puck"), np.zeros((1, 2)), 0)
    np.testing.assert_array_equal(ds.next_states, np.zeros((1, 2)))
    np.testing.assert_array_equal(ds.states, np.zeros((1, 2)))


def test_gen_puck_stopping_distance():
    ds = gen_puck(DomainSpec("puck"), np.array([[1.0, 0.0]]), 0)
    np.testing.assert_allclose(ds.next_states, [[STOP_SLOW, 0.0]], atol=1e-12)


def test_gen_puck_anisotropic_friction():
    spec = DomainSpec("puck", friction_x=0.1, friction_y=0.4)
    ds = gen_puck(spec, np.array([[1.0, 1.0]]), 0)
    np.testing.assert_allclose(ds.next_states, [[STOP_SLOW, STOP_FAST]], atol=1e-12)


def test_gen_puck_negative_launch_is_odd():
    v = np.array([[1.5, -0.5]])
    fwd = gen_puck(DomainSpec("puck"), v, 0)
    bwd = gen_puck(DomainSpec("puck"), -v, 0)
    np.testing.assert_allclose(bwd.next_states, -fwd.next_states, atol=1e-15)


def test_gen_puck_curl_rotates_outcome():
    spec = DomainSpec("puck", curl=np.pi / 2.0)
    ds = gen_puck(spec, np.array([[1.0, 0.0]]), 0)
    np.testing.assert_allclose(ds.next_states, [[0.0, STOP_SLOW]], atol=1e-12)


def test_gen_puck_quarter_turn_equivariant():
    # the per-axis friction law commutes with quarter turns when isotropic
    rng = np.random.default_rng(13)
    v = rng.uniform(-2.0, 2.0, size=(50, 2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for _ in range(3):
        v_rot = v @ rot.T
        base = gen_puck(DomainSpec("puck"), v, 0)
        turned = gen_puck(DomainSpec("puck"), v_rot, 0)
        np.testing.assert_allclose(
            turned.next_states, base.next_states @ rot.T, atol=1e-9
        )
        v = v_rot


def test_gen_puck_rejects_bad_specs():
    with pytest.raises(BadSpec):
        gen_puck(DomainSpec("puck", friction_x=0.0), np.zeros((2, 2)), 0)
    with pytest.raises(BadSpec):
        gen_puck(DomainSpec("puck", gravity=-1.0), np.zeros((2, 2)), 0)
    with pytest.raises(BadSpec):
        gen_puck(DomainSpec("puck"), np.zeros((2, 3)), 0)
    with pytest.raises(BadSpec):
        DomainSpec("puck", noise_std=-0.1)
    with pytest.raises(BadSpec):
        DomainSpec("hover")


def test_spec_from_dict_friction_alias():
    spec = DomainSpec.from_dict({"kind": "puck", "friction": [0.2, 0.3]})
    assert spec.friction_x == 0.2 and spec.friction_y == 0.3


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(BadSpec):
        DomainSpec.from_dict({"kind": "puck", "mass": 1.0})
    with pytest.raises(BadSpec):
        DomainSpec.from_dict({"label": "x"})  # no kind


def test_csv_round_trip(tmp_path):
    spec = _linear_spec("roundtrip", noise_std=0.3)
    ds = gen_linear(spec, np.random.default_rng(1).standard_normal((25, 1)), 5)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.rows, ds.rows)
    assert (back.state_dim, back.action_dim) == (2, 1)
    assert back.domain_label == "roundtrip"
    assert back.seed == 5


def test_csv_rewrite_is_byte_identical(tmp_path):
    ds = gen_puck(DomainSpec("puck"), np.random.default_rng(2).uniform(-2, 2, (10, 2)), 4)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    save_dataset(ds, first)
    save_dataset(ds, second)
    assert first.read_bytes() == second.read_bytes()


def test_load_requires_manifest(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("s0,a0,ns0\n0.0,0.0,0.0\n")
    with pytest.raises(MissingManifest):
        load_csv(path)


def _write_pair(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_text("s0,a0,ns0\n" + body)
    manifest = tmp_path / "data.manifest.json"
    manifest.write_text('{"state_dim": 1, "action_dim": 1, "domain_label": "d", "seed": 0}\n')
    return path


def test_load_reports_wrong_column_count(tmp_path):
    path = _write_pair(tmp_path, "0.0,0.0,0.0\n1.0,2.0,3.0,4.0\n")
    with pytest.raises(MalformedCsv, match="row 2"):
        load_csv(path)


def test_load_rejects_non_numeric_cell(tmp_path):
    path = _write_pair(tmp_path, "0.0,zap,0.0\n")
    with pytest.raises(MalformedCsv, match="row 1"):
        load_csv(path)


def test_load_rejects_nan_cell(tmp_path):
    path = _write_pair(tmp_path, "0.0,NaN,0.0\n")
    with pytest.raises(MalformedCsv):
        load_csv(path)


# every cell goes through float(), so padding and digit underscores are read
def test_load_reads_cells_as_float_does(tmp_path):
    path = _write_pair(tmp_path, " 1.5,1_0 ,\t-2\n")
    np.testing.assert_array_equal(load_csv(path).rows, [[1.5, 10.0, -2.0]])


def test_load_rejects_blank_line(tmp_path):
    path = _write_pair(tmp_path, "0.0,0.0,0.0\n\n1.0,1.0,1.0\n")
    with pytest.raises(MalformedCsv, match="row 2 has 1 columns"):
        load_csv(path)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,a0,ns0\n0.0,0.0,0.0\n")
    manifest = tmp_path / "data.manifest.json"
    manifest.write_text('{"state_dim": 1, "action_dim": 1}\n')
    with pytest.raises(MalformedCsv):
        load_csv(path)


def test_split_all_into_train():
    ds = gen_puck(DomainSpec("puck"), np.random.default_rng(3).uniform(-2, 2, (10, 2)), 1)
    train, test = split(ds, (1.0, 0.0), 0)
    assert train.n == 10 and test.n == 0


def test_split_sizes_and_disjoint():
    ds = gen_puck(DomainSpec("puck"), np.random.default_rng(3).uniform(-2, 2, (10, 2)), 1)
    train, test = split(ds, (0.8, 0.2), 5)
    assert train.n == 8 and test.n == 2
    seen = {tuple(r) for r in train.rows} | {tuple(r) for r in test.rows}
    assert len(seen) == 10


def test_split_keeps_pairs_aligned():
    actions = np.random.default_rng(4).standard_normal((30, 1))
    src = gen_linear(_linear_spec("source"), actions, 2)
    tgt = gen_linear(_linear_spec("target", scales=np.array([2.0, 1.0])), actions, 2)
    train_s, test_s = split(src, (0.7, 0.3), 8)
    train_t, test_t = split(tgt, (0.7, 0.3), 8)
    np.testing.assert_array_equal(train_s.states, train_t.states)
    np.testing.assert_array_equal(test_s.actions, test_t.actions)


def test_split_rejects_bad_fractions():
    ds = gen_puck(DomainSpec("puck"), np.zeros((4, 2)), 1)
    with pytest.raises(BadFraction):
        split(ds, (0.5, 0.6), 0)
    with pytest.raises(BadFraction):
        split(ds, (-0.1, 1.1), 0)
    with pytest.raises(BadFraction):
        split(ds, (0.5,), 0)


def test_subset_picks_rows_in_order():
    rows = np.arange(18.0).reshape(3, 6)
    ds = TransitionDataset(2, 2, rows, "demo", 1)
    sub = subset(ds, [2, 0])
    np.testing.assert_array_equal(sub.rows, rows[[2, 0]])
    assert sub.domain_label == "demo"


def test_fingerprint_tracks_content_only():
    rows = np.arange(12.0).reshape(2, 6)
    a = TransitionDataset(2, 2, rows, "one", 1)
    b = TransitionDataset(2, 2, rows, "two", 9)
    c = TransitionDataset(2, 2, rows + 1.0, "one", 1)
    assert dataset_fingerprint(a) == dataset_fingerprint(b)
    assert dataset_fingerprint(a) != dataset_fingerprint(c)
