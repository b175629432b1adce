"""Tests for the command line front end: flags, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affine_transport import (
    BadSpec,
    DimensionMismatch,
    TooFewSamples,
    TransitionDataset,
    evaluate_pointwise,
    fit,
    load_csv,
    load_model,
    rng_stream,
    save_dataset,
    split,
    subset,
)
from affine_transport.cli import learning_curve, main

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    return main([str(a) for a in args])


def synth_linear(tmp_path, name, n=400, seed=0, extra=()):
    out = tmp_path / name
    out.mkdir()
    code = run(
        "synth", "--kind", "linear", "--n", n, "--seed", seed, "--out", out,
        "--target-scales", "2.0,0.5,1.3", "--noise", "0.01", *extra,
    )
    assert code == 0
    return out


def test_synth_writes_paired_files(tmp_path, capsys):
    out = tmp_path / "pair"
    out.mkdir()
    assert run("synth", "--kind", "puck", "--n", 100, "--seed", 7, "--out", out) == 0
    assert {p.name for p in out.iterdir()} == {
        "source.csv",
        "target.csv",
        "source.manifest.json",
        "target.manifest.json",
    }
    src = load_csv(out / "source.csv")
    tgt = load_csv(out / "target.csv")
    np.testing.assert_array_equal(src.actions, tgt.actions)
    assert "synth: kind=puck n=100" in capsys.readouterr().out


def test_synth_reruns_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        out.mkdir()
        assert run("synth", "--kind", "puck", "--n", 50, "--seed", 3, "--out", out) == 0
    for name in ("source.csv", "target.csv", "source.manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_synth_missing_directory_is_io_error(tmp_path):
    assert run("synth", "--kind", "puck", "--n", 10, "--out", tmp_path / "nope") == 2


def test_synth_target_directory_is_one_io_error(tmp_path, capsys):
    out = tmp_path / "pair"
    (out / "target.csv").mkdir(parents=True)
    assert run("synth", "--kind", "puck", "--n", 10, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[IsADirectoryError]: ") and err.count("\n") == 1
    # both files are opened before either is written, and no manifest is written
    assert not list(out.glob("*.manifest.json"))


def test_synth_bad_friction_is_config_error(tmp_path):
    out = tmp_path / "pair"
    out.mkdir()
    code = run("synth", "--kind", "puck", "--n", 10, "--out", out, "--target-friction=-1,0.4")
    assert code == 5


def test_synth_from_spec_file(tmp_path):
    out = tmp_path / "pair"
    out.mkdir()
    spec = tmp_path / "pair.json"
    spec.write_text(
        json.dumps(
            {
                "kind": "linear",
                "n": 60,
                "state_dim": 2,
                "action_dim": 1,
                "target": {"scales": [2.0, 0.5], "inverted": [0]},
            }
        )
    )
    assert run("synth", "--spec", spec, "--out", out) == 0
    assert load_csv(out / "target.csv").state_dim == 2


def test_synth_spec_file_rejects_unknown_keys(tmp_path):
    out = tmp_path / "pair"
    out.mkdir()
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({"kind": "linear", "n": 10, "mass": 2.0}))
    assert run("synth", "--spec", spec, "--out", out) == 5


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "linear", "n": "abc"},
        {"kind": "linear", "n": 10, "state_dim": "x"},
        {"kind": "linear", "n": 10, "dynamics": "abc"},
        {"kind": "linear", "n": 10, "source": {"noise_std": "x"}},
        {"kind": "linear", "n": 10, "source": 5},
        {"kind": "puck", "n": 10, "target": {"friction": {}}},
    ],
)
def test_synth_bad_spec_values_are_config_errors(tmp_path, capsys, doc):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(doc))
    assert run("synth", "--spec", spec, "--out", tmp_path) == 5
    assert capsys.readouterr().err.startswith("error[BadSpec]: ")


def test_synth_undecodable_spec_is_io_error(tmp_path):
    spec = tmp_path / "pair.json"
    spec.write_bytes(b"\xff\xfe{}")
    assert run("synth", "--spec", spec, "--out", tmp_path) == 2


# every shape here has more float64 bytes than intp can count, so numpy refuses
# it before allocating anything
@pytest.mark.parametrize(
    "flags, doc",
    [
        (["--kind", "puck", "--n", 10**20], {"kind": "puck", "n": 10**20}),
        (["--kind", "linear", "--state-dim", 10**10, "--n", 5],
         {"kind": "linear", "state_dim": 10**10, "n": 5}),
        (["--kind", "linear", "--state-dim", 10, "--action-dim", 10**18, "--n", 1],
         {"kind": "linear", "state_dim": 10, "action_dim": 10**18, "n": 1}),
    ],
    ids=["puck-rows", "linear-dynamics", "linear-controls"],
)
def test_synth_unindexable_sizes_are_config_errors(tmp_path, capsys, flags, doc):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(doc))
    assert run("synth", *flags, "--out", tmp_path) == 5
    assert capsys.readouterr().err.startswith("error[BadSpec]: ")
    assert run("synth", "--spec", spec, "--out", tmp_path) == 5
    assert capsys.readouterr().err.startswith("error[BadSpec]: ")
    assert not (tmp_path / "source.csv").exists()


@pytest.mark.parametrize(
    "flags, doc",
    [
        (
            ["--kind", "linear", "--n", 40, "--state-dim", 2, "--action-dim", 3,
             "--source-label", "sim", "--target-label", "real", "--noise", "0.02",
             "--target-noise", "0.05", "--source-scales", "1.5,0.5", "--source-disable", "0",
             "--target-scales", "2.0,0.7", "--target-invert", "0,1"],
            {"kind": "linear", "n": 40, "state_dim": 2, "action_dim": 3,
             "source": {"label": "sim", "noise_std": 0.02, "scales": [1.5, 0.5], "disabled": [0]},
             "target": {"label": "real", "noise_std": 0.05, "scales": [2.0, 0.7],
                        "inverted": [0, 1]}},
        ),
        (
            ["--kind", "puck", "--n", 40, "--source-noise", "0.01",
             "--source-friction", "0.2,0.1", "--target-friction", "0.3,0.5",
             "--source-curl", "0.2", "--target-curl", "-0.4"],
            {"kind": "puck", "n": 40,
             "source": {"noise_std": 0.01, "friction": [0.2, 0.1], "curl": 0.2},
             "target": {"friction": [0.3, 0.5], "curl": -0.4}},
        ),
    ],
    ids=["linear", "puck"],
)
def test_synth_flags_and_spec_write_identical_files(tmp_path, flags, doc):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(doc))
    from_flags = tmp_path / "flags"
    from_spec = tmp_path / "spec"
    from_flags.mkdir()
    from_spec.mkdir()
    assert run("synth", "--seed", 6, "--out", from_flags, *flags) == 0
    assert run("synth", "--seed", 6, "--out", from_spec, "--spec", spec) == 0
    names = ("source.csv", "target.csv", "source.manifest.json", "target.manifest.json")
    for name in names:
        assert (from_flags / name).read_bytes() == (from_spec / name).read_bytes(), name


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "linear", "--target-scales", "2,2,2", "--noise", "5"],
        ["--noise", "0"],
        ["--kind", "puck"],
        ["--source-label", "source"],
        ["--state-dim", "3"],
        ["--target-friction", "0.1,0.4"],
    ],
    ids=["other-pair", "noise-default", "kind", "label-default", "state-dim-default",
         "friction-default"],
)
def test_synth_spec_rejects_pair_flags(tmp_path, capsys, flags):
    # a pair flag beside --spec would be ignored, even at its default value
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({"kind": "puck", "n": 10}))
    assert run("synth", "--spec", spec, "--out", tmp_path, *flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("usage error: --spec combines only with --n, --seed and --out")
    assert not (tmp_path / "source.csv").exists()
    assert run("synth", "--spec", spec, "--n", 12, "--seed", 3, "--out", tmp_path) == 0


def test_fit_identity_pair(tmp_path, capsys):
    # noise keeps the rows full rank so the identity fit is identifiable
    out = synth_linear(tmp_path, "pair", extra=("--target-scales", "1.0,1.0,1.0", "--noise", "0.05"))
    model_path = tmp_path / "model.json"
    code = run("fit", "--source", out / "source.csv", "--target", out / "source.csv",
               "--out", model_path)
    assert code == 0
    model = load_model(model_path)
    assert np.linalg.norm(model.composed.matrix - np.eye(model.dim)) <= 1e-4
    captured = capsys.readouterr().out
    assert "fit: n=400" in captured and "rho_aff=" in captured


def test_fit_needs_two_rows_and_two_are_enough(tmp_path, capsys):
    for n in (2, 1):
        pair = tmp_path / str(n)
        pair.mkdir()
        assert run("synth", "--kind", "puck", "--n", n, "--out", pair) == 0
    capsys.readouterr()
    assert run("fit", "--source", tmp_path / "2/source.csv", "--target",
               tmp_path / "2/target.csv", "--out", tmp_path / "model.json") == 0
    assert capsys.readouterr().out.startswith("fit: n=2 dim=6 ")
    assert run("fit", "--source", tmp_path / "1/source.csv", "--target",
               tmp_path / "1/target.csv", "--out", tmp_path / "one.json") == 5
    assert capsys.readouterr().err == (
        "error[TooFewSamples]: need at least 2 paired rows to fit, got 1\n"
    )
    assert not (tmp_path / "one.json").exists()


def test_fit_mismatched_counts_is_pairing_error(tmp_path):
    big = synth_linear(tmp_path, "big", n=100)
    small = synth_linear(tmp_path, "small", n=50)
    code = run("fit", "--source", big / "source.csv", "--target", small / "target.csv",
               "--out", tmp_path / "model.json")
    assert code == 3


def test_fit_missing_input_is_io_error(tmp_path):
    code = run("fit", "--source", tmp_path / "no.csv", "--target", tmp_path / "no.csv",
               "--out", tmp_path / "model.json")
    assert code == 2


def test_fit_malformed_csv_is_io_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("s0,a0,ns0\n1,2\n")
    (tmp_path / "bad.manifest.json").write_text('{"state_dim": 1, "action_dim": 1}')
    code = run("fit", "--source", bad, "--target", bad, "--out", tmp_path / "m.json")
    assert code == 2


def test_fit_bad_manifest_seed_is_io_error(tmp_path, capsys):
    out = synth_linear(tmp_path, "pair", n=20)
    (out / "source.manifest.json").write_text(
        '{"state_dim": 3, "action_dim": 2, "seed": "abc"}'
    )
    code = run("fit", "--source", out / "source.csv", "--target", out / "target.csv",
               "--out", tmp_path / "model.json")
    assert code == 2
    assert capsys.readouterr().err.startswith("error[MalformedCsv]: ")


def test_oversized_manifest_dims_give_a_short_error(tmp_path, capsys):
    out = tmp_path / "pair"
    out.mkdir()
    assert run("synth", "--kind", "puck", "--n", 20, "--out", out) == 0
    (out / "source.manifest.json").write_text('{"state_dim": 300000, "action_dim": 2}')
    capsys.readouterr()
    assert run("score", "--source", out / "source.csv", "--target", out / "target.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error[MalformedCsv]: ")
    assert len(err.encode("utf-8")) < 1024


@pytest.mark.parametrize("d, k", [(3, 0), (0, 2), (-1, 3)],
                         ids=["action_dim=0", "state_dim=0", "state_dim=-1"])
def test_non_positive_manifest_dims_are_malformed_csv(tmp_path, capsys, d, k):
    out = synth_linear(tmp_path, "pair", n=20)
    # a CSV whose header is the one those dimensions imply
    header = ([f"s{i}" for i in range(d)] + [f"a{i}" for i in range(k)]
              + [f"ns{i}" for i in range(d)])
    row = ",".join(["0.5"] * len(header))
    (out / "source.csv").write_text("\n".join([",".join(header)] + [row] * 20) + "\n")
    (out / "source.manifest.json").write_text(json.dumps({"state_dim": d, "action_dim": k}))
    capsys.readouterr()
    assert run("score", "--source", out / "source.csv", "--target", out / "target.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error[MalformedCsv]: ") and err.count("\n") == 1
    assert "source.manifest.json" in err


# fit and eval read two dataset CSVs, so the line names the file and the row
@pytest.mark.parametrize("command", ["fit", "eval", "score"])
def test_non_utf8_dataset_csv_names_its_file(tmp_path, capsys, command):
    out = synth_linear(tmp_path, "pair", n=20)
    model = tmp_path / "model.json"
    assert run("fit", "--source", out / "source.csv", "--target", out / "target.csv",
               "--out", model) == 0
    bad = out / "target.csv"
    lines = bad.read_bytes().split(b"\n")
    lines[3] = lines[3][:-1] + b"\xff"  # the last cell of data row 3
    bad.write_bytes(b"\n".join(lines))
    pair = ["--source", out / "source.csv", "--target", bad]
    argv = {
        "fit": ["fit", *pair, "--out", tmp_path / "again.json"],
        "eval": ["eval", "--model", model, *pair, "--out", tmp_path / "report.json"],
        "score": ["score", *pair],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error[MalformedCsv]: {bad} data row 3: 'utf-8' codec can't decode")


def _constant_target_pairs(tmp_path):
    """One source with each of two constant targets: 1.0, and 0.1, whose
    computed mean is not exactly 0.1."""
    rng = np.random.default_rng(4)
    for value in (1.0, 0.1):
        out = tmp_path / repr(value)
        out.mkdir()
        save_dataset(TransitionDataset(1, 1, rng.standard_normal((10, 3))), out / "source.csv")
        save_dataset(TransitionDataset(1, 1, np.full((10, 3), value)), out / "target.csv")
        yield out / "source.csv", out / "target.csv"


def test_failing_fit_writes_no_model(tmp_path, capsys):
    for source, target in _constant_target_pairs(tmp_path):
        model_path = tmp_path / "model.json"
        assert run("fit", "--source", source, "--target", target, "--out", model_path) == 5
        assert capsys.readouterr().err.startswith("error[DegenerateInput]: ")
        assert not model_path.exists()


def test_score_constant_target_is_degenerate_input(tmp_path, capsys):
    for source, target in _constant_target_pairs(tmp_path):
        assert run("score", "--source", source, "--target", target) == 5
        assert capsys.readouterr().err.startswith("error[DegenerateInput]: ")


def test_constant_target_is_refused_by_every_command_at_any_n(tmp_path, monkeypatch, capsys):
    import affine_transport.discrete_ot as discrete_ot

    def refuse(*args, **kwargs):
        raise AssertionError("an assignment solve ran")

    pair = synth_linear(tmp_path, "pair", n=50, seed=1)
    model = tmp_path / "model.json"
    assert run("fit", "--source", pair / "source.csv", "--target", pair / "target.csv",
               "--out", model) == 0
    monkeypatch.setattr(discrete_ot, "linear_sum_assignment", refuse)
    ones = tmp_path / "ones.csv"
    save_dataset(TransitionDataset(3, 2, np.ones((50, 8))), ones)
    # above the exact cap fit scores nothing, and the target is still refused
    big = [tmp_path / "big_source.csv", tmp_path / "big_target.csv"]
    save_dataset(TransitionDataset(1, 1, np.arange(3 * 4097.0).reshape(4097, 3)), big[0])
    save_dataset(TransitionDataset(1, 1, np.ones((4097, 3))), big[1])
    capsys.readouterr()
    commands = [
        ("eval", "--model", model, "--source", pair / "source.csv", "--target", ones,
         "--out", tmp_path / "report.json"),
        ("score", "--source", pair / "source.csv", "--target", ones),
        ("fit", "--source", big[0], "--target", big[1], "--out", tmp_path / "big.json"),
    ]
    for argv in commands:
        assert run(*argv) == 5, argv[0]
        assert capsys.readouterr().err == (
            "error[DegenerateInput]: target samples are all identical; the score is undefined\n"
        )
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "big.json").exists()


def test_eval_writes_json_report(tmp_path):
    out = synth_linear(tmp_path, "pair")
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    assert run("fit", "--source", out / "source.csv", "--target", out / "target.csv",
               "--out", model_path) == 0
    assert run("eval", "--model", model_path, "--source", out / "source.csv",
               "--target", out / "target.csv", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["eval_on_fit_data"] is True
    assert report["n_fit"] == 400 and report["n_eval"] == 400
    assert report["error_after_mean"] < report["error_before_mean"]
    assert 0.0 <= report["rho_aff"] <= 1.0
    for key in ("w2_before", "w2_after", "bound_value"):
        assert np.isfinite(report[key])


def test_eval_csv_report_matches_json(tmp_path):
    out = synth_linear(tmp_path, "pair")
    model_path = tmp_path / "model.json"
    run("fit", "--source", out / "source.csv", "--target", out / "target.csv",
        "--out", model_path)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    run("eval", "--model", model_path, "--source", out / "source.csv",
        "--target", out / "target.csv", "--out", json_path)
    run("eval", "--model", model_path, "--source", out / "source.csv",
        "--target", out / "target.csv", "--out", csv_path, "--format", "csv")
    doc = json.loads(json_path.read_text())
    header, row = csv_path.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["rho_aff"]) == doc["rho_aff"]
    assert cells["eval_on_fit_data"] == "true"


def test_eval_dimension_mismatch_exit_code(tmp_path):
    linear = synth_linear(tmp_path, "linear")
    puck = tmp_path / "puck"
    puck.mkdir()
    run("synth", "--kind", "puck", "--n", 50, "--out", puck)
    model_path = tmp_path / "model.json"
    run("fit", "--source", puck / "source.csv", "--target", puck / "target.csv",
        "--out", model_path)
    code = run("eval", "--model", model_path, "--source", linear / "source.csv",
               "--target", linear / "target.csv", "--out", tmp_path / "r.json")
    assert code == 4


def test_eval_state_dim_mismatch_of_equal_width_exit_code(tmp_path, capsys):
    # (3, 2) and (2, 4) both give rows of width 8: only the next states differ
    pairs = {}
    for name, d, k in (("fit", 3, 2), ("eval", 2, 4)):
        pairs[name] = tmp_path / name
        pairs[name].mkdir()
        assert run("synth", "--kind", "linear", "--n", 50, "--state-dim", d,
                   "--action-dim", k, "--out", pairs[name]) == 0
    model_path = tmp_path / "model.json"
    assert run("fit", "--source", pairs["fit"] / "source.csv",
               "--target", pairs["fit"] / "target.csv", "--out", model_path) == 0
    capsys.readouterr()
    code = run("eval", "--model", model_path, "--source", pairs["eval"] / "source.csv",
               "--target", pairs["eval"] / "target.csv", "--out", tmp_path / "r.json")
    assert (code, capsys.readouterr().err) == (
        4, "error[DimensionMismatch]: datasets have dims (2, 4), model expects (3, 2)\n"
    )
    assert not (tmp_path / "r.json").exists()


def test_eval_of_equal_width_dims_names_both_pairs(tmp_path, capsys):
    # a puck model (2, 2) on (1, 4) rows, both of width 6
    puck, lin14 = tmp_path / "puck", tmp_path / "lin14"
    puck.mkdir()
    lin14.mkdir()
    assert run("synth", "--kind", "puck", "--n", 50, "--out", puck) == 0
    assert run("synth", "--kind", "linear", "--n", 50, "--state-dim", 1,
               "--action-dim", 4, "--out", lin14) == 0
    model_path = tmp_path / "model.json"
    assert run("fit", "--source", puck / "source.csv", "--target", puck / "target.csv",
               "--out", model_path) == 0
    capsys.readouterr()
    code = run("eval", "--model", model_path, "--source", lin14 / "source.csv",
               "--target", lin14 / "target.csv", "--out", tmp_path / "r.json")
    assert (code, capsys.readouterr().err) == (
        4, "error[DimensionMismatch]: datasets have dims (1, 4), model expects (2, 2)\n"
    )
    assert not (tmp_path / "r.json").exists()


def test_learning_curve_single_point_matches_eval(tmp_path):
    out = synth_linear(tmp_path, "pair", n=400, seed=5)
    curve_path = tmp_path / "curve.json"
    code = run(
        "learning-curve", "--source", out / "source.csv", "--target", out / "target.csv",
        "--sizes", "300", "--repeats", "1", "--holdout-fraction", "0.25",
        "--seed", 5, "--out", curve_path,
    )
    assert code == 0
    # one size still makes a list of one point, like every other curve
    (point,) = json.loads(curve_path.read_text())
    assert point["n_fit"] == 300 and point["repeats"] == 1

    # replicate the internal split, then fit and eval through the CLI
    src = load_csv(out / "source.csv")
    tgt = load_csv(out / "target.csv")
    pool_s, hold_s = split(src, (0.75, 0.25), 5)
    pool_t, hold_t = split(tgt, (0.75, 0.25), 5)
    from affine_transport import save_dataset

    for ds, name in ((pool_s, "ps"), (pool_t, "pt"), (hold_s, "hs"), (hold_t, "ht")):
        save_dataset(ds, tmp_path / f"{name}.csv")
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    assert run("fit", "--source", tmp_path / "ps.csv", "--target", tmp_path / "pt.csv",
               "--out", model_path) == 0
    assert run("eval", "--model", model_path, "--source", tmp_path / "hs.csv",
               "--target", tmp_path / "ht.csv", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert point["mean_error"] == report["error_after_mean"]
    assert point["std_error"] == 0.0


def test_learning_curve_matches_single_fits_bit_for_bit(tmp_path):
    # 25 repeats: a full block of 20 stacked repeats and a partial one of 5
    out = tmp_path / "pair"
    out.mkdir()
    assert run("synth", "--kind", "puck", "--n", 400, "--seed", 6, "--noise", "0.01",
               "--target-curl", "0.3", "--out", out) == 0
    curve_path = tmp_path / "curve.json"
    assert run("learning-curve", "--source", out / "source.csv", "--target", out / "target.csv",
               "--sizes", "8,128", "--repeats", "25", "--seed", 6, "--out", curve_path) == 0
    points = json.loads(curve_path.read_text())

    src, tgt = load_csv(out / "source.csv"), load_csv(out / "target.csv")
    pool_s, hold_s = split(src, (0.75, 0.25), 6)
    pool_t, hold_t = split(tgt, (0.75, 0.25), 6)
    assert pool_s.n == 300
    for point, size in zip(points, (8, 128)):
        errors = []
        for rep in range(25):
            draw = rng_stream(6, "curve", size, rep).choice(pool_s.n, size=size, replace=False)
            idx = np.sort(draw)
            model = fit(subset(pool_s, idx), subset(pool_t, idx))
            errors.append(evaluate_pointwise(model, hold_s, hold_t)[1][0])
        errors = np.array(errors)
        assert point["n_fit"] == size
        assert point["mean_error"] == float(errors.mean())
        assert point["std_error"] == float(errors.std())


def test_learning_curve_stack_size_changes_no_bit(monkeypatch):
    # stacks of one or two repeats and maps give the points of the default stacks
    from affine_transport import transfer

    pool_s, pool_t, hold_s, hold_t = _curve_pools()
    args = (pool_s, pool_t, hold_s, hold_t, [8, 32, 75], 7, 4)
    default = learning_curve(*args)
    for stack_bytes in (1, 2 * hold_s.rows.nbytes):
        monkeypatch.setattr(transfer, "_STACK_BYTES", stack_bytes)
        assert learning_curve(*args) == default


def test_learning_curve_fits_each_size_in_one_kernel_call(monkeypatch):
    from affine_transport import transfer
    from helpers import puck_pair

    src, tgt = puck_pair(4, 400, noise=0.01)
    pool_s, hold_s = split(src, (0.75, 0.25), 4)
    pool_t, hold_t = split(tgt, (0.75, 0.25), 4)
    calls = []
    kernel = transfer._fit_moments
    monkeypatch.setattr(
        transfer, "_fit_moments", lambda *args: calls.append(args) or kernel(*args)
    )
    points = learning_curve(pool_s, pool_t, hold_s, hold_t, [8, 32, 128], 20, 4)
    assert [p.n_fit for p in points] == [8, 32, 128]
    # one stack of all 20 repeats per size
    assert [(args[0], args[3].shape[0]) for args in calls] == [(8, 20), (32, 20), (128, 20)]

    with pytest.raises(TooFewSamples):
        learning_curve(pool_s, pool_t, hold_s, hold_t, [1], 20, 4)


def _curve_pools():
    """Pool and holdout of a seed-4 puck pair: (pool_s, pool_t, hold_s, hold_t)."""
    from helpers import puck_pair

    src, tgt = puck_pair(4, 100, noise=0.01)
    pool_s, hold_s = split(src, (0.75, 0.25), 4)
    pool_t, hold_t = split(tgt, (0.75, 0.25), 4)
    return pool_s, pool_t, hold_s, hold_t


def test_learning_curve_api_checks_holdout_dims_before_any_fit(monkeypatch):
    from affine_transport import transfer
    from helpers import linear_pair

    def refuse(*args):
        raise AssertionError("the curve fitted a block")

    pool_s, pool_t, _, _ = _curve_pools()
    # (1, 4) rows have the puck pool's width, 6
    hold_s, hold_t = linear_pair(4, 20, state_dim=1, action_dim=4)
    monkeypatch.setattr(transfer, "_fit_moments", refuse)
    line = r"^datasets have dims \(1, 4\), model expects \(2, 2\)$"
    with pytest.raises(DimensionMismatch, match=line):
        learning_curve(pool_s, pool_t, hold_s, hold_t, [8], 20, 4)


def test_learning_curve_api_rejects_zero_repeats():
    with pytest.raises(BadSpec, match="repeats must be positive, got 0"):
        learning_curve(*_curve_pools(), [8], 0, 4)


def test_learning_curve_api_rejects_negative_sizes():
    with pytest.raises(TooFewSamples, match="got fit size -1"):
        learning_curve(*_curve_pools(), [8, -1], 20, 4)


def test_learning_curve_rejects_zero_repeats(tmp_path):
    out = synth_linear(tmp_path, "pair", n=100)
    code = run("learning-curve", "--source", out / "source.csv",
               "--target", out / "target.csv", "--repeats", "0",
               "--out", tmp_path / "c.json")
    assert code == 1


def test_learning_curve_rejects_oversized_fit(tmp_path):
    out = synth_linear(tmp_path, "pair", n=100)
    code = run("learning-curve", "--source", out / "source.csv",
               "--target", out / "target.csv", "--sizes", "90", "--repeats", "1",
               "--out", tmp_path / "c.json")
    assert code == 5


def test_learning_curve_above_solver_cap(tmp_path):
    # 4100 held-out rows: above the exact cap, but the curve solves no transport
    out = tmp_path / "pair"
    out.mkdir()
    assert run("synth", "--kind", "linear", "--n", 8200, "--out", out) == 0
    curve_path = tmp_path / "curve.json"
    code = run("learning-curve", "--source", out / "source.csv",
               "--target", out / "target.csv", "--holdout-fraction", "0.5",
               "--sizes", "8,32", "--repeats", "2", "--out", curve_path)
    assert code == 0
    rows = json.loads(curve_path.read_text())
    assert [r["n_fit"] for r in rows] == [8, 32]


def test_learning_curve_solves_no_transport(tmp_path, monkeypatch):
    import affine_transport.discrete_ot as discrete_ot

    def refuse(*args, **kwargs):
        raise AssertionError("learning-curve ran an assignment solve")

    out = synth_linear(tmp_path, "pair", n=200)
    monkeypatch.setattr(discrete_ot, "linear_sum_assignment", refuse)
    code = run("learning-curve", "--source", out / "source.csv",
               "--target", out / "target.csv", "--sizes", "8,32", "--repeats", "3",
               "--out", tmp_path / "c.json")
    assert code == 0


def test_learning_curve_rejects_single_row_holdout(tmp_path, capsys):
    out = synth_linear(tmp_path, "pair", n=10)
    code = run("learning-curve", "--source", out / "source.csv",
               "--target", out / "target.csv", "--sizes", "8", "--repeats", "1",
               "--holdout-fraction", "0.1", "--out", tmp_path / "c.json")
    assert code == 5
    assert "error[TooFewSamples]" in capsys.readouterr().err


def test_score_affine_pair(tmp_path, capsys):
    # a symmetric PSD row map is exactly what at_map can undo, so the score
    # should sit near one
    from helpers import affine_rows_pair, random_spd

    matrix = random_spd(np.random.default_rng(11), 4, spread=2.0)
    src, tgt = affine_rows_pair(11, 400, 1, 2, matrix, offset=np.array([1.0, -2.0, 0.5, 0.0]))
    from affine_transport import save_dataset

    save_dataset(src, tmp_path / "src.csv")
    save_dataset(tgt, tmp_path / "tgt.csv")
    assert run("score", "--source", tmp_path / "src.csv", "--target", tmp_path / "tgt.csv") == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("rho_aff=") and line.endswith("n=400")
    rho = float(line.split()[0].split("=")[1])
    assert rho >= 0.95


def test_score_writes_report(tmp_path):
    out = synth_linear(tmp_path, "pair")
    score_path = tmp_path / "score.json"
    assert run("score", "--source", out / "source.csv", "--target", out / "target.csv",
               "--out", score_path) == 0
    doc = json.loads(score_path.read_text())
    assert doc["n"] == 400 and 0.0 <= doc["rho_aff"] <= 1.0


def test_score_dimension_mismatch_exit_code(tmp_path, capsys):
    # linear with state_dim 1 and action_dim 4 has the puck's row width, 6
    puck = tmp_path / "puck"
    lin14 = tmp_path / "lin14"
    puck.mkdir()
    lin14.mkdir()
    assert run("synth", "--kind", "puck", "--n", 50, "--out", puck) == 0
    assert run("synth", "--kind", "linear", "--n", 50, "--state-dim", 1,
               "--action-dim", 4, "--out", lin14) == 0
    code = run("score", "--source", puck / "source.csv", "--target", lin14 / "target.csv")
    assert code == 4
    assert "error[DimensionMismatch]" in capsys.readouterr().err


def test_score_above_solver_cap(tmp_path):
    out = tmp_path / "pair"
    out.mkdir()
    assert run("synth", "--kind", "linear", "--n", 4097, "--out", out) == 0
    code = run("score", "--source", out / "source.csv", "--target", out / "target.csv")
    assert code == 5


def test_eval_above_solver_cap(tmp_path, capsys):
    out = tmp_path / "pair"
    out.mkdir()
    assert run("synth", "--kind", "linear", "--n", 4097, "--out", out) == 0
    model_path = tmp_path / "model.json"
    assert run("fit", "--source", out / "source.csv", "--target", out / "target.csv",
               "--out", model_path) == 0
    code = run("eval", "--model", model_path, "--source", out / "source.csv",
               "--target", out / "target.csv", "--out", tmp_path / "r.json")
    assert code == 5
    assert "error[TooLarge]" in capsys.readouterr().err


def test_fit_and_eval_rerun_byte_identical(tmp_path):
    out = synth_linear(tmp_path, "pair")
    files = []
    for tag in ("x", "y"):
        model_path = tmp_path / f"model-{tag}.json"
        report_path = tmp_path / f"report-{tag}.json"
        run("fit", "--source", out / "source.csv", "--target", out / "target.csv",
            "--out", model_path)
        run("eval", "--model", model_path, "--source", out / "source.csv",
            "--target", out / "target.csv", "--out", report_path)
        files.append((model_path.read_bytes(), report_path.read_bytes()))
    assert files[0] == files[1]


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["fit"]) == 1
    assert main(["synth", "--kind", "hover", "--n", "5", "--out", "."]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_log_level_does_not_change_outputs(tmp_path, monkeypatch):
    quiet = tmp_path / "quiet"
    chatty = tmp_path / "chatty"
    quiet.mkdir()
    chatty.mkdir()
    assert run("synth", "--kind", "puck", "--n", 20, "--out", quiet) == 0
    monkeypatch.setenv("AT_LOG_LEVEL", "debug")
    assert run("synth", "--kind", "puck", "--n", 20, "--out", chatty) == 0
    assert (quiet / "source.csv").read_bytes() == (chatty / "source.csv").read_bytes()


def test_info_log_level_prints_the_wrote_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AT_LOG_LEVEL", "info")
    assert run("synth", "--kind", "puck", "--n", 20, "--out", tmp_path) == 0
    err = capsys.readouterr().err
    wrote = f"INFO affine_transport.cli: wrote {tmp_path / 'source.csv'} and "
    assert err.startswith(wrote) and len(err.splitlines()) == 1


# Runs in a fresh interpreter, whose root logger has no handler yet
_HOST = r"""
import logging, sys
from affine_transport.cli import main

root = logging.getLogger()
assert main(["synth", "--kind", "puck", "--n", "20", "--out", sys.argv[1]]) == 0
assert root.handlers == [] and root.level == logging.WARNING, (root.handlers, root.level)
logging.basicConfig(level=logging.INFO, format="host %(message)s")
logging.getLogger("host").info("line")
assert main(["synth", "--kind", "puck", "--n", "20", "--out", sys.argv[1]]) == 0
"""


def test_main_leaves_the_root_logger_to_its_host(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), AT_LOG_LEVEL="info")
    proc = subprocess.run([sys.executable, "-c", _HOST, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    wrote = f"INFO affine_transport.cli: wrote {tmp_path / 'source.csv'} and "
    lines = proc.stderr.splitlines()
    # the host's line, and the package's once per run: never through the host's handler too
    assert lines[1] == "host line"
    assert [line.startswith(wrote) for line in lines] == [True, False, True]


def test_eval_on_empty_pair_is_too_few_samples(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    pair = synth_linear(tmp_path, "pair", n=20)
    assert run("fit", "--source", pair / "source.csv", "--target", pair / "target.csv",
               "--out", model_path) == 0
    empty = [tmp_path / "source.csv", tmp_path / "target.csv"]
    for path in empty:
        save_dataset(TransitionDataset(3, 2, np.empty((0, 8))), path)
    capsys.readouterr()
    code = run("eval", "--model", model_path, "--source", empty[0], "--target", empty[1],
               "--out", tmp_path / "r.json")
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error[TooFewSamples]: ")
    assert len(err.splitlines()) == 1


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


INT_SPEC = {
    "kind": "linear", "n": 10, "state_dim": 2, "action_dim": 2,
    "source": {"inverted": [1]}, "target": {"disabled": [1]},
}
INT_FIELDS = (
    [("spec", path) for path in
     [("n",), ("state_dim",), ("action_dim",), ("source", "inverted", 0),
      ("target", "disabled", 0)]]
    + [("manifest", path) for path in [("state_dim",), ("action_dim",), ("seed",)]]
    + [("model", path) for path in
       [("version",), ("dim",), ("state_dim",), ("action_dim",), ("meta", "n_fit"),
        ("meta", "seed")]]
)
EXPECTED = {
    "spec": (5, "BadSpec"), "manifest": (2, "MalformedCsv"), "model": (2, "MalformedModel"),
}


@pytest.fixture(scope="module")
def int_work(tmp_path_factory):
    """A linear pair (seed 3) and the model fitted on it."""
    root = tmp_path_factory.mktemp("int-rule")
    pair = root / "pair"
    pair.mkdir()
    assert run("synth", "--kind", "linear", "--n", 20, "--seed", 3, "--out", pair) == 0
    assert run("fit", "--source", pair / "source.csv", "--target", pair / "target.csv",
               "--out", root / "model.json") == 0
    return root


@pytest.mark.parametrize("kind", ["boolean", "fractional"])
@pytest.mark.parametrize(
    "document, path", INT_FIELDS, ids=[f"{d}:{'.'.join(map(str, p))}" for d, p in INT_FIELDS]
)
def test_integer_fields_reject_booleans_and_fractions(int_work, tmp_path, capsys,
                                                      document, path, kind):
    pair = int_work / "pair"
    if document == "spec":
        doc = json.loads(json.dumps(INT_SPEC))
    elif document == "manifest":
        doc = json.loads((pair / "source.manifest.json").read_text())
    else:
        doc = json.loads((int_work / "model.json").read_text())
    _get(doc, path[:-1])[path[-1]] = True if kind == "boolean" else _get(doc, path) + 0.5
    capsys.readouterr()
    if document == "spec":
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        code = run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path)
    elif document == "manifest":
        (tmp_path / "source.csv").write_bytes((pair / "source.csv").read_bytes())
        (tmp_path / "source.manifest.json").write_text(json.dumps(doc))
        code = run("score", "--source", tmp_path / "source.csv",
                   "--target", pair / "target.csv")
    else:
        (tmp_path / "model.json").write_text(json.dumps(doc))
        code = run("eval", "--model", tmp_path / "model.json", "--source", pair / "source.csv",
                   "--target", pair / "target.csv", "--out", tmp_path / "r.json")
    err = capsys.readouterr().err.splitlines()
    assert (code, len(err)) == (EXPECTED[document][0], 1)
    assert err[0].startswith(f"error[{EXPECTED[document][1]}]: ")


@pytest.mark.parametrize(
    "side",
    [{"noise_std": True}, {"curl": False}, {"friction": [True, 0.4]}, {"gravity": True}],
)
def test_number_fields_reject_booleans(tmp_path, capsys, side):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({"kind": "puck", "n": 10, "target": side}))
    assert run("synth", "--spec", spec, "--out", tmp_path) == 5
    assert capsys.readouterr().err.startswith("error[BadSpec]: ")
    assert not (tmp_path / "source.csv").exists()


# a JSON integer past Python's default digit limit, and nesting too deep to
# decode: both used to escape as a traceback from json.loads
@pytest.mark.parametrize("text", ['{"n": ' + "1" * 5000 + "}", "[" * 100_000])
def test_undecodable_json_documents(int_work, tmp_path, capsys, text):
    pair = int_work / "pair"
    (tmp_path / "doc.json").write_text(text)
    (tmp_path / "source.csv").write_bytes((pair / "source.csv").read_bytes())
    (tmp_path / "source.manifest.json").write_text(text)
    for argv, code, name in [
        (["synth", "--spec", tmp_path / "doc.json", "--out", tmp_path], 5, "BadSpec"),
        (["score", "--source", tmp_path / "source.csv", "--target", pair / "target.csv"],
         2, "MalformedCsv"),
        (["eval", "--model", tmp_path / "doc.json", "--source", pair / "source.csv",
          "--target", pair / "target.csv", "--out", tmp_path / "r.json"], 2, "MalformedModel"),
    ]:
        capsys.readouterr()
        assert run(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error[{name}]: ")


@pytest.mark.parametrize(
    "flags, doc",
    [
        (["--kind", "puck", "--n", 10, "--target-curl", "inf"],
         {"kind": "puck", "n": 10, "target": {"curl": float("inf")}}),
        (["--kind", "puck", "--n", 10, "--noise", "inf"],
         {"kind": "puck", "n": 10, "source": {"noise_std": float("inf")}}),
        (["--kind", "linear", "--n", 10, "--target-scales", "1,inf,1"],
         {"kind": "linear", "n": 10, "target": {"scales": [1.0, float("nan"), 1.0]}}),
    ],
    ids=["curl", "noise", "scales"],
)
def test_non_finite_spec_numbers_are_bad_specs(tmp_path, capsys, flags, doc):
    # json.dumps writes Infinity and NaN, which json.loads reads back
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(doc))
    for argv in (flags, ["--spec", spec]):
        assert run("synth", *argv, "--out", tmp_path) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[BadSpec]: ")
    assert not (tmp_path / "source.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "linear", "--target-scales", "1e308,1e308,1e308"],
        ["--kind", "puck", "--noise", "1e308"],
    ],
    ids=["linear-scales", "puck-noise"],
)
def test_overflowing_synth_prints_one_error(tmp_path, capsys, flags):
    # finite spec values whose rows overflow: no numpy warning comes first
    assert run("synth", *flags, "--n", 10, "--out", tmp_path) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[NonFinite]: ")


@pytest.mark.parametrize(
    "command",
    [["fit"], ["score"], ["learning-curve", "--sizes", "8", "--repeats", "3"]],
    ids=["fit", "score", "learning-curve"],
)
def test_overflowing_covariance_prints_one_error(tmp_path, capsys, command):
    # finite rows whose covariance overflows: no numpy warning comes first
    pair = synth_linear(tmp_path, "pair", n=20, extra=("--target-scales", "1e200,1,1"))
    capsys.readouterr()
    code = run(*command, "--source", pair / "source.csv", "--target", pair / "target.csv",
               "--out", tmp_path / "out.json")
    err = capsys.readouterr().err.splitlines()
    assert (code, len(err)) == (5, 1)
    assert err[0].startswith("error[NonFinite]: ")


OVERFLOW_LINES = {
    "fit": "cross-covariance contains NaN or infinite entries",
    "score": "target covariance contains NaN or infinite entries",
}


@pytest.mark.parametrize("command, line", list(OVERFLOW_LINES.items()), ids=list(OVERFLOW_LINES))
def test_overflowing_moments_name_what_overflowed(tmp_path, capsys, command, line):
    # a target scaled by 1e308: finite rows, but their moments overflow
    pair = tmp_path / "pair"
    pair.mkdir()
    assert run("synth", "--kind", "linear", "--n", 5, "--state-dim", 1, "--action-dim", 1,
               "--target-scales", "1e308", "--out", pair) == 0
    capsys.readouterr()
    code = run(command, "--source", pair / "source.csv", "--target", pair / "target.csv",
               "--out", tmp_path / "out.json")
    assert (code, capsys.readouterr().err) == (5, f"error[NonFinite]: {line}\n")
    assert not (tmp_path / "out.json").exists()


def test_learning_curve_overflowing_holdout_error_prints_one_error(tmp_path, capsys):
    # a0 = 1e308 in one held-out row of both files: its predicted next state is
    # finite, but its error overflows. No numpy warning and no curve with an
    # infinite mean error
    pair = tmp_path / "pair"
    pair.mkdir()
    assert run("synth", "--kind", "puck", "--n", 2048, "--seed", 3, "--out", pair) == 0
    row = 619
    assert row in rng_stream(3, "split").permutation(2048)[1536:]  # the holdout's rows
    for side in ("source", "target"):
        path = pair / f"{side}.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[1 + row].split(",")
        cells[2] = "1e308"  # s0,s1,a0,...
        lines[1 + row] = ",".join(cells)
        path.write_text("".join(lines))
    capsys.readouterr()
    code = run("learning-curve", "--source", pair / "source.csv", "--target",
               pair / "target.csv", "--seed", 3, "--out", tmp_path / "curve.json")
    err = capsys.readouterr().err.splitlines()
    assert (code, err) == (5, ["error[NonFinite]: held-out next-state errors overflow"])
    assert not (tmp_path / "curve.json").exists()


def test_overflowing_distances_print_one_error(tmp_path, capsys):
    # a model fitted on an ordinary pair, evaluated on finite rows whose
    # pairwise squared distances overflow: no numpy warning comes first
    fit_pair = synth_linear(tmp_path, "fit", n=20, seed=1)
    far_pair = synth_linear(tmp_path, "far", n=20, seed=1, extra=("--target-scales", "1e200,1,1"))
    model = tmp_path / "model.json"
    assert run("fit", "--source", fit_pair / "source.csv", "--target", fit_pair / "target.csv",
               "--out", model) == 0
    capsys.readouterr()
    code = run("eval", "--model", model, "--source", far_pair / "source.csv",
               "--target", far_pair / "target.csv", "--out", tmp_path / "report.json")
    err = capsys.readouterr().err.splitlines()
    assert (code, len(err)) == (5, 1)
    assert err[0].startswith("error[NonFinite]: ")
    assert not (tmp_path / "report.json").exists()


def test_unallocatable_synth_prints_one_error(tmp_path, capsys):
    # the 10**9 x 10**9 dynamics fit in intp but not in memory: numpy refuses
    # the 8e18-byte request before touching any of it
    code = run("synth", "--kind", "linear", "--state-dim", 1000000000, "--n", 1,
               "--out", tmp_path)
    err = capsys.readouterr().err.splitlines()
    assert (code, len(err)) == (5, 1)
    assert err[0].startswith("error[MemoryError]: ")
    assert not (tmp_path / "source.csv").exists()


LINEAR_4D = {"kind": "linear", "n": 10, "dynamics": np.eye(4).tolist(),
             "controls": np.ones((4, 2)).tolist()}


@pytest.mark.parametrize("stated", [{"state_dim": 3}, {"action_dim": 1},
                                    {"state_dim": 4, "action_dim": 3}])
def test_spec_dims_must_match_its_matrices(tmp_path, capsys, stated):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({**LINEAR_4D, **stated}))
    assert run("synth", "--spec", spec, "--out", tmp_path) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[BadSpec]: ")
    assert not (tmp_path / "source.csv").exists()


@pytest.mark.parametrize("stated", [{}, {"state_dim": 4, "action_dim": 2}])
def test_spec_matrices_set_the_dims(tmp_path, stated):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({**LINEAR_4D, **stated}))
    assert run("synth", "--spec", spec, "--out", tmp_path) == 0
    ds = load_csv(tmp_path / "target.csv")
    assert (ds.state_dim, ds.action_dim, ds.n) == (4, 2, 10)


@pytest.mark.parametrize("command", ["synth", "fit"])
def test_format_only_where_a_report_is_written(tmp_path, capsys, command):
    pair = synth_linear(tmp_path, "pair", n=20)
    argv = {"synth": ("--kind", "puck", "--n", 10),
            "fit": ("--source", pair / "source.csv", "--target", pair / "target.csv")}
    assert run(command, *argv[command], "--format", "csv", "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "path",
    [("target", "scales", 0), ("dynamics", 1, 1), ("controls", 0, 0)],
    ids=lambda p: ".".join(map(str, p)),
)
def test_spec_array_fields_reject_booleans(tmp_path, capsys, path):
    doc = {"kind": "linear", "n": 10, "state_dim": 2, "action_dim": 1,
           "dynamics": [[0.5, 0.1], [0.0, 0.9]], "controls": [[1.0], [0.5]],
           "target": {"scales": [1.0, 2.0]}}
    _get(doc, path[:-1])[path[-1]] = True
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(doc))
    assert run("synth", "--spec", spec, "--out", tmp_path) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[BadSpec]: ")


# a model field of the wrong JSON type: a boolean in an array, or a dataset
# hash that is not a string
@pytest.mark.parametrize(
    "path, value",
    [(("R", 0), True), (("A", 0), True), (("b", 0), True),
     (("meta", "source_hash"), None), (("meta", "target_hash"), [1, 2])],
    ids=["R", "A", "b", "source_hash-null", "target_hash-list"],
)
def test_model_array_fields_reject_booleans(int_work, tmp_path, capsys, path, value):
    pair = int_work / "pair"
    doc = json.loads((int_work / "model.json").read_text())
    _get(doc, path[:-1])[path[-1]] = value
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = run("eval", "--model", tmp_path / "model.json", "--source", pair / "source.csv",
               "--target", pair / "target.csv", "--out", tmp_path / "r.json")
    err = capsys.readouterr().err.splitlines()
    assert (code, len(err)) == (2, 1)
    assert err[0].startswith("error[MalformedModel]: ")


# usage errors that no other test reaches, and the one line each prints;
# {pair} is int_work's pair and {tmp} the test's own directory
CURVE = ["learning-curve", "--source", "{pair}/source.csv", "--target", "{pair}/target.csv",
         "--out", "{tmp}/curve.json"]
USAGE_LINES = {
    "fit-without-out": (["fit", "--source", "{pair}/source.csv", "--target", "{pair}/target.csv"],
                        "--out is required for this command"),
    "synth-without-kind": (["synth", "--n", "10", "--out", "{tmp}"],
                           "synth needs --kind (or a --spec file)"),
    "synth-without-n": (["synth", "--kind", "puck", "--out", "{tmp}"],
                        "synth needs --n (or a --spec file with 'n')"),
    "sizes-1": (CURVE + ["--sizes", "1"], "--sizes needs fit sizes of at least 2, got '1'"),
    "sizes-empty": (CURVE + ["--sizes", ""], "--sizes needs fit sizes of at least 2, got ''"),
    # a given list flag with an empty value or an empty item is refused, not
    # read as the default or as the remaining items
    "sizes-empty-item": (CURVE + ["--sizes", "2,,3"],
                         "--sizes expects comma separated integers, got '2,,3'"),
    "friction-empty": (["synth", "--kind", "puck", "--n", "5", "--target-friction", "",
                        "--out", "{tmp}"],
                       "--target-friction expects comma separated numbers, got ''"),
    "scales-empty": (["synth", "--kind", "linear", "--n", "5", "--target-scales", "",
                      "--target-invert", "", "--out", "{tmp}"],
                     "--target-scales expects comma separated numbers, got ''"),
    "invert-empty": (["synth", "--kind", "linear", "--n", "5", "--target-invert", "",
                      "--out", "{tmp}"],
                     "--target-invert expects comma separated integers, got ''"),
    "scales-leading-comma": (["synth", "--kind", "linear", "--n", "5", "--target-scales",
                              ",2,3,1", "--out", "{tmp}"],
                             "--target-scales expects comma separated numbers, got ',2,3,1'"),
    "holdout-fraction": (CURVE + ["--holdout-fraction", "1.5"],
                         "--holdout-fraction must be in (0, 1), got 1.5"),
    "negative-seed": (["synth", "--kind", "puck", "--n", "10", "--seed", "-1", "--out", "{tmp}"],
                      "argument --seed: expected a non-negative integer, got -1"),
    # flags that only the other kind's generator reads
    "linear-with-puck-flags": (["synth", "--kind", "linear", "--n", "10", "--target-friction",
                                "0.1,0.4", "--target-curl", "0.3", "--out", "{tmp}"],
                               "--kind linear takes no puck flags, got --target-curl, "
                               "--target-friction"),
    "puck-with-linear-flags": (["synth", "--kind", "puck", "--n", "10", "--target-scales", "2,2",
                                "--state-dim", "3", "--out", "{tmp}"],
                               "--kind puck takes no linear flags, got --state-dim, "
                               "--target-scales"),
}


@pytest.mark.parametrize("argv, line", list(USAGE_LINES.values()), ids=list(USAGE_LINES))
def test_usage_errors_print_their_line(int_work, tmp_path, capsys, argv, line):
    capsys.readouterr()
    assert main([a.format(pair=int_work / "pair", tmp=tmp_path) for a in argv]) == 1
    assert capsys.readouterr().err == f"usage error: {line}\n"
    assert not list(tmp_path.iterdir())


def test_module_entry_point_exits_with_mains_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "affine_transport.cli", "synth", "--n", "10",
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    line = USAGE_LINES["synth-without-kind"][1]
    assert (proc.returncode, proc.stderr) == (1, f"usage error: {line}\n")


def test_missing_solver_is_one_error_line(int_work, monkeypatch, capsys):
    import importlib.util

    from affine_transport.discrete_ot import _lsap

    pair = int_work / "pair"
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    _lsap.cache_clear()  # the solve loads the solver afresh
    try:
        capsys.readouterr()
        assert run("score", "--source", pair / "source.csv", "--target", pair / "target.csv") == 5
        assert capsys.readouterr().err == (
            "error[ImportError]: the exact solve needs scipy, which is not installed\n"
        )
    finally:
        _lsap.cache_clear()


def test_empty_csv_with_a_manifest_is_malformed(int_work, tmp_path, capsys):
    pair = int_work / "pair"
    (tmp_path / "source.csv").write_bytes(b"")
    (tmp_path / "source.manifest.json").write_bytes((pair / "source.manifest.json").read_bytes())
    capsys.readouterr()
    assert run("score", "--source", tmp_path / "source.csv", "--target", pair / "target.csv") == 2
    assert capsys.readouterr().err == f"error[MalformedCsv]: {tmp_path / 'source.csv'} is empty\n"


SPEC_LINES = {
    "n-0": ({"kind": "linear", "n": 0}, "sample count must be positive, got 0"),
    "dynamics-1d": ({"kind": "linear", "n": 10, "dynamics": [0.5, 0.1]},
                    "dynamics must be a matrix, got shape (2,)"),
    "state-dim-0": ({"kind": "linear", "n": 10, "state_dim": 0},
                    "state_dim and action_dim must be positive, got 0 and 2"),
    "dynamics-2x3": ({"kind": "linear", "n": 10, "dynamics": [[1, 0, 0], [0, 1, 0]]},
                     "dynamics must be square, got shape (2, 3)"),
    "controls-3x1": ({"kind": "linear", "n": 10, "dynamics": [[1, 0], [0, 1]],
                      "controls": [[1], [0], [0]]},
                     "controls must have 2 rows, got shape (3, 1)"),
    "kind-missing": ({"n": 10}, "spec file must set kind to 'linear' or 'puck', got None"),
    "source-list": ({"kind": "puck", "n": 10, "source": []},
                    "spec field 'source' must be an object, got []"),
    "friction-one-number": ({"kind": "puck", "n": 10, "source": {"friction": [0.2]}},
                            "friction must be a pair of numbers, got [0.2]"),
    "target-mass": ({"kind": "puck", "n": 10, "target": {"mass": 1}},
                    "unknown domain spec fields: ['mass']"),
    # fields of the other kind, which its generator would ignore
    "puck-target-scales": ({"kind": "puck", "n": 10,
                            "target": {"scales": [2, 2], "inverted": [0]}},
                           "a puck domain never reads target fields ['inverted', 'scales']"),
    "puck-source-disabled": ({"kind": "puck", "n": 10, "source": {"disabled": [1]}},
                             "a puck domain never reads source fields ['disabled']"),
    "linear-target-friction": ({"kind": "linear", "n": 10,
                                "target": {"friction": [0.1, 0.4], "curl": 0.3}},
                               "a linear domain never reads target fields ['curl', 'friction']"),
    "puck-dynamics": ({"kind": "puck", "n": 10, "state_dim": 3,
                       "dynamics": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                      "a puck pair never reads spec file fields ['dynamics', 'state_dim']"),
    "puck-action-dim-controls": ({"kind": "puck", "n": 10, "action_dim": 2,
                                  "controls": [[1, 0], [0, 1]]},
                                 "a puck pair never reads spec file fields "
                                 "['action_dim', 'controls']"),
    # each side's noise is keyed by its label
    "same-labels": ({"kind": "puck", "n": 10, "source": {"label": "a"}, "target": {"label": "a"}},
                    "source and target share the label 'a', so they would draw the same noise"),
    "empty-label": ({"kind": "linear", "n": 10, "target": {"label": ""}},
                    "domain label must not be empty"),
    "linear-source-gravity": ({"kind": "linear", "n": 10,
                               "source": {"friction_x": 0.2, "friction_y": 0.3, "gravity": 1}},
                              "a linear domain never reads source fields "
                              "['friction_x', 'friction_y', 'gravity']"),
}


@pytest.mark.parametrize("doc, line", list(SPEC_LINES.values()), ids=list(SPEC_LINES))
def test_bad_spec_files_print_their_line(tmp_path, capsys, doc, line):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(doc))
    assert run("synth", "--spec", spec, "--out", tmp_path) == 5
    assert capsys.readouterr().err == f"error[BadSpec]: {line}\n"
    assert not (tmp_path / "source.csv").exists()


@pytest.mark.parametrize(
    "labels, line",
    [(("a", "a"), "source and target share the label 'a', so they would draw the same noise"),
     (("", "target"), "domain label must not be empty")],
    ids=["same", "empty"],
)
def test_synth_label_flags_must_differ_and_be_given(tmp_path, capsys, labels, line):
    code = run("synth", "--kind", "puck", "--n", 4, "--noise", 0.5, "--source-label", labels[0],
               "--target-label", labels[1], "--target-friction", "0.1,0.1", "--out", tmp_path)
    assert code == 5
    assert capsys.readouterr().err == f"error[BadSpec]: {line}\n"
    assert not (tmp_path / "source.csv").exists()


MODEL_LINES = {
    "meta-list": (lambda doc: {**doc, "meta": []}, "field 'meta' must be an object"),
    "R-nested": (lambda doc: {**doc, "R": [doc["R"]]},
                 "field 'R' must be a flat list of finite numbers"),
    "state-dim-negative": (lambda doc: {**doc, "state_dim": -1},
                           "model dimensions must be positive, got state_dim=-1 action_dim=2"),
    # a dim its arrays match but state_dim and action_dim do not
    "dim-disagrees": (lambda doc: {**doc, "action_dim": 1},
                      "rotation has shape (8, 8), expected (7, 7)"),
}


@pytest.mark.parametrize("edit, line", list(MODEL_LINES.values()), ids=list(MODEL_LINES))
def test_bad_model_files_print_their_line(int_work, tmp_path, capsys, edit, line):
    pair = int_work / "pair"
    doc = edit(json.loads((int_work / "model.json").read_text()))
    (tmp_path / "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = run("eval", "--model", tmp_path / "model.json", "--source", pair / "source.csv",
               "--target", pair / "target.csv", "--out", tmp_path / "r.json")
    assert (code, capsys.readouterr().err) == (2, f"error[MalformedModel]: {line}\n")
    assert not (tmp_path / "r.json").exists()


def test_learning_curve_csv_from_synth_pair(tmp_path):
    # the sample-efficiency table: a synthesized linear pair, then its curve as CSV
    pair = synth_linear(tmp_path, "pair", n=200, extra=("--target-invert", "1"))
    out = tmp_path / "curve.csv"
    assert run("learning-curve", "--source", pair / "source.csv", "--target",
               pair / "target.csv", "--sizes", "8,16,32", "--repeats", 2,
               "--format", "csv", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_fit,mean_error,std_error,repeats"
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "16", "32"]


SPECS = sorted(ROOT.glob("specs/**/*.json"))


@pytest.mark.parametrize("spec", SPECS, ids=[str(p.relative_to(ROOT)) for p in SPECS])
def test_committed_spec_runs_synth_fit_eval(tmp_path, spec):
    # the README's table loops: train and holdout pairs at two seeds, fit, eval
    train, hold = tmp_path / "train", tmp_path / "hold"
    for out, seed in ((train, 0), (hold, 1000)):
        out.mkdir()
        assert run("synth", "--spec", spec, "--n", 60, "--seed", seed, "--out", out) == 0
    assert run("fit", "--source", train / "source.csv", "--target", train / "target.csv",
               "--out", tmp_path / "model.json") == 0
    assert run("eval", "--model", tmp_path / "model.json", "--source", hold / "source.csv",
               "--target", hold / "target.csv", "--out", tmp_path / "report.json") == 0
    assert np.isfinite(json.loads((tmp_path / "report.json").read_text())["rho_aff"])
