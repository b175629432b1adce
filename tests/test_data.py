"""Tests for dataset generators, CSV round trips, splits, and random streams."""

import dataclasses

import numpy as np
import pytest

from affine_transport import data
from affine_transport import (
    BadFraction,
    BadSpec,
    DimensionMismatch,
    DomainSpec,
    MalformedCsv,
    MissingManifest,
    NonFinite,
    PairingMismatch,
    TransitionDataset,
    dataset_fingerprint,
    gen_linear,
    gen_puck,
    load_csv,
    pair_specs,
    rng_stream,
    save_dataset,
    split,
    subset,
)
from helpers import linear_pair, puck_pair

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


def test_dataset_keeps_no_view_of_a_writable_caller_array():
    rows = np.arange(12.0).reshape(2, 6).copy()  # owns its data, like a caller's fresh array
    view = rows[:]
    view.setflags(write=False)
    from_rows = TransitionDataset(2, 2, rows)
    from_view = TransitionDataset(2, 2, view)
    rows[0, 0] = 99.0
    assert from_rows.rows[0, 0] == 0.0 and from_view.rows[0, 0] == 0.0
    assert not from_rows.rows.flags.writeable


def test_dataset_keeps_a_read_only_array_it_is_handed():
    rows = np.arange(12.0).reshape(2, 6).copy()  # reshape alone gives a view
    rows.setflags(write=False)
    assert TransitionDataset(2, 2, rows).rows is rows


def test_dataset_rejects_bad_width():
    with pytest.raises(DimensionMismatch):
        TransitionDataset(2, 2, np.zeros((3, 5)))
    with pytest.raises(DimensionMismatch, match=r"^rows must be 2-D, got shape \(3,\)$"):
        TransitionDataset(1, 1, np.zeros(3))


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
    m, b = np.eye(2), np.ones((2, 1))
    # a spec field a generator cannot use is rejected when the spec is built
    for kw, line in (
        ({}, "linear domain spec needs 'dynamics' and 'controls' matrices"),
        ({"dynamics": m}, "linear domain spec needs 'dynamics' and 'controls' matrices"),
        ({"dynamics": np.ones((2, 3)), "controls": b},
         r"dynamics must be square, got shape \(2, 3\)"),
        ({"dynamics": m, "controls": np.ones((3, 1))},
         r"controls must have 2 rows, got shape \(3, 1\)"),
        ({"dynamics": m, "controls": b, "scales": [1.0, -1.0]},
         "scale factors must be strictly positive"),
        ({"dynamics": m, "controls": b, "scales": [1.0, 1.0, 1.0]},
         r"scales must have length 2, got shape \(3,\)"),
        ({"dynamics": m, "controls": b, "inverted": (5,)},
         r"inverted indices out of range for dimension 2: \(5,\)"),
        ({"dynamics": m, "controls": b, "disabled": (-1,)},
         r"disabled indices out of range for dimension 2: \(-1,\)"),
    ):
        with pytest.raises(BadSpec, match=f"^{line}$"):
            DomainSpec("linear", **kw)
    with pytest.raises(BadSpec):
        gen_linear(_linear_spec(), np.zeros((5, 3)), 0)  # wrong action width
    with pytest.raises(BadSpec):
        gen_linear(DomainSpec("puck"), actions, 0)  # wrong kind
    with pytest.raises(BadSpec, match="^inverted must be a list of indices, got 5$"):
        DomainSpec("linear", inverted=5)


@pytest.mark.parametrize("kind", ["linear", "puck"])
def test_noise_is_added_to_the_next_states(kind):
    if kind == "linear":
        spec, generate, k = _linear_spec(label="noisy"), gen_linear, 1
    else:
        spec, generate, k = DomainSpec("puck", label="noisy", curl=0.3), gen_puck, 2
    seed, n = 4, 64
    actions = rng_stream(seed, "test-actions").standard_normal((n, k))
    clean = generate(spec, actions, seed)
    d, clean = clean.state_dim, clean.rows
    # noise far above the next states keeps the rounding of (x + noise) - x
    # far below the tolerance, whatever the draw
    sigma = 1e3
    noisy = generate(dataclasses.replace(spec, noise_std=sigma), actions, seed).rows
    noise = sigma * rng_stream(seed, "noise", "noisy").standard_normal((n, d))
    np.testing.assert_allclose(noisy[:, -d:] - clean[:, -d:], noise, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(noisy[:, :-d], clean[:, :-d])


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
    for kw, line in (
        ({"friction_x": 0.0}, r"friction must be strictly positive, got \(0.0, 0.1\)"),
        ({"friction_y": -1.0}, r"friction must be strictly positive, got \(0.1, -1.0\)"),
        ({"gravity": -1.0}, "gravity must be strictly positive, got -1.0"),
        ({"noise_std": -0.1}, "noise_std must be >= 0, got -0.1"),
        ({"label": ""}, "domain label must not be empty"),
        # a label keys the noise stream and is written to the manifest as text
        ({"label": 5}, "domain label must be a string, got 5"),
        ({"label": True}, "domain label must be a string, got True"),
        ({"label": None}, "domain label must be a string, got None"),
        ({"label": ["x"]}, r"domain label must be a string, got \['x'\]"),
    ):
        with pytest.raises(BadSpec, match=f"^{line}$"):
            DomainSpec("puck", **kw)
    with pytest.raises(BadSpec):
        gen_puck(DomainSpec("puck"), np.zeros((2, 3)), 0)
    with pytest.raises(BadSpec):
        DomainSpec("hover")
    with pytest.raises(BadSpec, match="^gen_puck requires kind='puck', got 'linear'$"):
        gen_puck(_linear_spec(), np.zeros((2, 2)), 0)
    # an integer too large for a float
    with pytest.raises(BadSpec, match="^noise_std must be a finite number, got 1000"):
        DomainSpec("puck", noise_std=10**400)


@pytest.mark.parametrize("kind", ["linear", "puck"])
def test_pair_specs_refuses_equal_labels(kind):
    # the noise stream is keyed by the label, so equal labels would draw one
    # noise for both sides
    doc = {"kind": kind, "n": 4, "source": {"label": "a", "noise_std": 0.5},
           "target": {"label": "a", "noise_std": 0.5}}
    line = "^source and target share the label 'a', so they would draw the same noise$"
    with pytest.raises(BadSpec, match=line):
        pair_specs(doc, 0)
    doc = {"kind": kind, "n": 4, "target": {"label": "source"}}
    with pytest.raises(BadSpec, match="^source and target share the label 'source'"):
        pair_specs(doc, 0)


def test_pair_specs_friction_alias():
    doc = {"kind": "puck", "n": 10, "source": {"friction": [0.2, 0.3]}}
    _, _, source, target = pair_specs(doc, 0)
    assert (source.friction_x, source.friction_y) == (0.2, 0.3)
    assert (target.friction_x, target.friction_y) == (0.1, 0.1)


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


def _pair_cases():
    chunk = data._WRITE_CHUNK
    for n in (0, chunk - 1, chunk, chunk + 1):
        yield f"linear-{n}", linear_pair(1, n, noise=0.1, target_scales=(2.0, 0.5, 1.3))
        yield f"puck-{n}", puck_pair(2, n, noise=0.01)


def _save_pair(tmp_path, source, target):
    """The bytes of source and target written in one paired call and in two
    single calls, each as (csv, manifest)."""
    out = {}
    for way in ("paired", "single"):
        paths = [tmp_path / way / f"{side}.csv" for side in ("source", "target")]
        paths[0].parent.mkdir()
        if way == "paired":
            save_dataset(source, paths[0], paired=(target, paths[1]))
        else:
            save_dataset(source, paths[0])
            save_dataset(target, paths[1])
        out[way] = [(p.read_bytes(), data.manifest_path_for(p).read_bytes()) for p in paths]
    return out


@pytest.mark.parametrize("case", list(_pair_cases()), ids=lambda case: case[0])
def test_paired_save_matches_two_single_saves(tmp_path, case):
    _, (source, target) = case
    out = _save_pair(tmp_path, source, target)
    assert out["paired"] == out["single"]
    for ds, (csv, _) in zip((source, target), out["single"]):
        lines = [",".join(data._header(ds.state_dim, ds.action_dim))]
        lines += [",".join(repr(float(v)) for v in row) for row in ds.rows]
        assert csv == ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("where", ["state", "action", "signed-zero"])
def test_paired_save_formats_differing_shared_cells_per_side(tmp_path, where):
    n = data._WRITE_CHUNK + 1
    rows = rng_stream(3, "rows").standard_normal((n, 6))
    rows[-1, 0] = 0.0
    other = rows.copy()
    # only the last chunk differs, so one chunk is shared and one is not
    if where == "state":
        other[-1, 1] += 1.0
    elif where == "action":
        other[-1, 3] *= 2.0
    else:
        other[-1, 0] = -0.0
    out = _save_pair(
        tmp_path, TransitionDataset(2, 2, rows, "source"), TransitionDataset(2, 2, other, "target")
    )
    assert out["paired"] == out["single"]
    assert out["paired"][0][0] != out["paired"][1][0]


@pytest.mark.parametrize(
    "other, error",
    [
        (TransitionDataset(1, 4, np.zeros((3, 6))), DimensionMismatch),
        (TransitionDataset(2, 2, np.zeros((4, 6))), PairingMismatch),
    ],
    ids=["dims", "rows"],
)
def test_paired_save_rejects_unpaired_datasets(tmp_path, other, error):
    source = TransitionDataset(2, 2, np.zeros((3, 6)))
    with pytest.raises(error):
        save_dataset(source, tmp_path / "source.csv", paired=(other, tmp_path / "target.csv"))
    assert list(tmp_path.iterdir()) == []


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


# padding around a number is read as float() reads it; digit underscores,
# which float() also reads, are not
def test_load_reads_cells_as_float_does(tmp_path):
    path = _write_pair(tmp_path, " 1.5,10 ,\t-2\n")
    np.testing.assert_array_equal(load_csv(path).rows, [[1.5, 10.0, -2.0]])
    path.write_text("s0,a0,ns0\n 1.5,1_0 ,\t-2\n")
    with pytest.raises(MalformedCsv, match="data row 1: could not convert string '1_0 '"):
        load_csv(path)


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


# body after the LF header -> its rows, or the message of its one MalformedCsv
# after the file's path. The former reader, which read each cell with float(),
# gave the same rows for every accepted body but "unit separator", which it rejected.
LOADER_CASES = {
    "plain": ("0.0,1.5,-2.0\n1e-300,2.5e-17,1e+16\n", [[0.0, 1.5, -2.0], [1e-300, 2.5e-17, 1e16]]),
    "single row": ("0.1,0.2,0.3\n", [[0.1, 0.2, 0.3]]),
    "padded cells": (" 1.5 ,\t-2,3 \n", [[1.5, -2.0, 3.0]]),
    "unicode spaces": ("\xa01,\u20002,3\u3000\n", [[1.0, 2.0, 3.0]]),
    "underscore": ("1_0,0,0\n", "data row 1: could not convert string '1_0' to float64, column 1."),
    "underscore in exponent": (
        "1e5_0,0,0\n", "data row 1: could not convert string '1e5_0' to float64, column 1."
    ),
    "arabic-indic digit": (
        "\u0661,0,0\n", "data row 1: could not convert string '\u0661' to float64, column 1."
    ),
    "fullwidth digit": (
        "\uff11,0,0\n", "data row 1: could not convert string '\uff11' to float64, column 1."
    ),
    # loadtxt strips \x1c-\x1f around a cell as it strips Unicode spaces
    "unit separator": ("1\x1f,0,0\n", [[1.0, 0.0, 0.0]]),
    "crlf data lines": ("1,2,3\r\n4,5,6\r\n", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "lone cr": (
        "1,2,3\r4,5,6\n\n",
        "data row 1: Found an unquoted embedded newline within a single line of input.  "
        "This is currently not supported.",
    ),
    "infinity": ("infinity,0,0\n", "data row 1, column s0: non-finite value inf"),
    "negative nan": ("0,-nan,0\n", "data row 1, column a0: non-finite value nan"),
    "blank line mid-file": ("1,2,3\n\n4,5,6\n", "data row 2 has 1 columns, expected 3"),
    "header and blank line": ("\n", "data row 1 has 1 columns, expected 3"),
    "header only": ("", np.empty((0, 3))),
    "no trailing newline": ("1,2,3\n4,5,6", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "short row": ("1,2,3\n4,5\n", "data row 2: the number of columns changed from 3 to 2"),
    "not utf-8": (
        "1,2,3\n",
        "data row 1: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte",
    ),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loadtxt_rows_match_per_cell_rows(tmp_path, case):
    body, expected = LOADER_CASES[case]
    raw = ("s0,a0,ns0\n" + body).encode("utf-8")
    if case == "not utf-8":
        raw = raw[:-1] + b"\xff\n"
    path = _write_pair(tmp_path, "")
    path.write_bytes(raw)
    if isinstance(expected, str):
        with pytest.raises(MalformedCsv) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path} {expected}"
    else:
        expected = np.asarray(expected, dtype=np.float64)
        got = load_csv(path).rows
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# one fault line -> the message after "<path> data row <i>"; loadtxt counts
# rows from 0 in some messages and from 1 in others, and the reader parses
# in chunks, so each fault goes in the first data row and in rows past the
# first chunk, the last one included
ROW_FAULTS = {
    "bad cell": (b"1,zap,3", ": could not convert string 'zap' to float64, column 2."),
    "short row": (b"1,2", ": the number of columns changed from 3 to 2"),
    "long row": (b"1,2,3,4", ": the number of columns changed from 3 to 4"),
    "blank line": (b"", " has 1 columns, expected 3"),
    "whitespace-only line": (b" \t", ": the number of columns changed from 3 to 1"),
    "non-finite cell": (b"1,nan,3", ", column a0: non-finite value nan"),
    "lone cr": (
        b"1,2,3\r4,5,6",
        ": Found an unquoted embedded newline within a single line of input.  "
        "This is currently not supported.",
    ),
    "non-utf-8 byte": (
        b"1,2,\xff", ": 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
    ),
}


@pytest.mark.parametrize("row", [1, data._WRITE_CHUNK + 2, data._WRITE_CHUNK + 3])
@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_load_names_the_faulty_row(tmp_path, fault, row):
    line, message = ROW_FAULTS[fault]
    lines = [b"1,2,3"] * (data._WRITE_CHUNK + 3)
    lines[row - 1] = line
    path = _write_pair(tmp_path, "")
    path.write_bytes(b"\n".join([b"s0,a0,ns0", *lines, b""]))
    with pytest.raises(MalformedCsv) as caught:
        load_csv(path)
    assert str(caught.value) == f"{path} data row {row}{message}"


def _round_trip_rows(n: int, width: int, seed: int) -> np.ndarray:
    """Random rows with the extreme floats the writer can meet in every column."""
    rows = rng_stream(seed, "round-trip").standard_normal((n, width))
    extremes = [5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e308, -1e308]
    cells = min(rows.size, len(extremes) * width)  # each extreme lands in each column
    rows.flat[:cells] = np.resize(extremes, cells)
    return rows


@pytest.mark.parametrize("n", [0, data._WRITE_CHUNK - 1, data._WRITE_CHUNK, data._WRITE_CHUNK + 1])
def test_saved_rows_read_back_bit_for_bit(tmp_path, n):
    source = TransitionDataset(2, 2, _round_trip_rows(n, 6, 1), "source", 1)
    target_rows = _round_trip_rows(n, 6, 2)
    target_rows[:, :4] = source.rows[:, :4]  # shared states and actions are formatted once
    target = TransitionDataset(2, 2, target_rows, "target", 1)
    save_dataset(source, tmp_path / "single.csv")
    save_dataset(source, tmp_path / "source.csv", paired=(target, tmp_path / "target.csv"))
    for ds, name in [(source, "single"), (source, "source"), (target, "target")]:
        back = load_csv(tmp_path / f"{name}.csv")
        assert back.rows.shape == (n, 6) and back.rows.tobytes() == ds.rows.tobytes()


@pytest.mark.parametrize("extra", [None, -1, 0, 1])
def test_csv_writer_chunks_give_the_whole_text(tmp_path, extra):
    n = 0 if extra is None else data._WRITE_CHUNK + extra
    rows = [[float(v), i, i % 2 == 0] for i, v in enumerate(rng_stream(n, "rows").standard_normal(n))]
    path = tmp_path / "rows.csv"
    data._write_csv(path, ["x", "i", "even"], rows)
    lines = ["x,i,even"] + [f"{v!r},{i},{'true' if even else 'false'}" for v, i, even in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


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
    with pytest.raises(BadFraction, match="^fractions must be two numbers, got 'ab'$"):
        split(ds, "ab", 0)


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


def test_fingerprint_digest_is_pinned():
    # a model's source_hash and target_hash are this digest; it must not drift
    rows = np.arange(12.0).reshape(2, 6) / 4 - 1
    digest = "261ca4e35f3f7bf62317b9a0427a98436f354f7fc2144409c78c8d96a47ccb2d"
    assert dataset_fingerprint(TransitionDataset(2, 2, rows)) == digest
    assert dataset_fingerprint(TransitionDataset(2, 2, np.asfortranarray(rows))) == digest
