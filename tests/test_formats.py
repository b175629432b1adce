"""Pins the bytes of every file the package writes.

A dataset (CSV and manifest) and a model are written by the library, an eval
report (JSON and CSV), a learning curve (CSV) and a score file by the CLI.
The numbers the CLI writes come from stand-ins for ``evaluate``,
``learning_curve`` and ``affinity_score``, so the expected text depends only
on the format: JSON with indent 2, sorted keys and a trailing newline; floats
as ``repr``; booleans as ``true``/``false``; UTF-8 with LF line endings.
"""

import numpy as np
import pytest

from affine_transport import (
    AffineMap,
    FitMeta,
    LearningCurvePoint,
    TransferModel,
    TransferReport,
    TransitionDataset,
    save_dataset,
    save_model,
)
from affine_transport import cli

ROWS = [[0.0, -1.5, 0.1], [1e-300, 2.0, 1 / 3], [1e16, -0.0, 2.5e-17]]

DATA_CSV = """\
s0,a0,ns0
0.0,-1.5,0.1
1e-300,2.0,0.3333333333333333
1e+16,-0.0,2.5e-17
"""

MANIFEST = """\
{
  "action_dim": 1,
  "domain_label": "src",
  "seed": 7,
  "state_dim": 1
}
"""

MODEL = """\
{
  "A": [
    2.0,
    0.0,
    0.0,
    0.0,
    0.5,
    0.0,
    0.0,
    0.0,
    1.0
  ],
  "R": [
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    0.0,
    0.0,
    0.0,
    1.0
  ],
  "action_dim": 1,
  "b": [
    0.25,
    -1.0,
    3.0
  ],
  "dim": 3,
  "meta": {
    "n_fit": 3,
    "seed": null,
    "source_hash": "ab",
    "target_hash": "cd"
  },
  "state_dim": 1,
  "version": 1
}
"""

REPORT_JSON = """\
{
  "bound_value": 4.0,
  "error_after_mean": 0.3333333333333333,
  "error_after_std": 0.0,
  "error_before_mean": 0.1,
  "error_before_std": 0.2,
  "eval_on_fit_data": false,
  "n_eval": 3,
  "n_fit": 3,
  "rho_aff": 0.75,
  "w2_after": 2.5e-17,
  "w2_before": 1e+16
}
"""

REPORT_CSV = """\
error_before_mean,error_before_std,error_after_mean,error_after_std,w2_before,w2_after,\
rho_aff,bound_value,n_fit,n_eval,eval_on_fit_data
0.1,0.2,0.3333333333333333,0.0,1e+16,2.5e-17,0.75,4.0,3,3,false
"""

CURVE_CSV = """\
n_fit,mean_error,std_error,repeats
2,0.1,0.3333333333333333,1
3,1e-05,0.0,1
"""

SCORE_JSON = """\
{
  "n": 3,
  "rho_aff": 0.1
}
"""


@pytest.fixture
def files(tmp_path, monkeypatch):
    """Every output file, written once into ``tmp_path``."""
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    save_dataset(TransitionDataset(1, 1, ROWS, "src", 7), data)
    rotation = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    transport = AffineMap(np.diag([2.0, 0.5, 1.0]), [0.25, -1.0, 3.0])
    save_model(TransferModel(rotation, transport, 1, 1, FitMeta(3, None, "ab", "cd")), model)

    report = TransferReport(0.1, 0.2, 1 / 3, 0.0, 1e16, 2.5e-17, 0.75, 4.0, 3, 3, False)
    points = [LearningCurvePoint(2, 0.1, 1 / 3, 1), LearningCurvePoint(3, 1e-5, 0.0, 1)]
    monkeypatch.setattr(cli, "evaluate", lambda *args: report)
    monkeypatch.setattr(cli, "learning_curve", lambda *args: points)
    monkeypatch.setattr(cli, "affinity_score", lambda *args: 0.1)
    pair = ["--source", data, "--target", data]
    for fmt in ("json", "csv"):
        argv = ["eval", "--model", model, *pair, "--format", fmt,
                "--out", tmp_path / f"report.{fmt}"]
        assert cli.main([str(a) for a in argv]) == 0
    argv = ["learning-curve", *pair, "--sizes", "2", "--repeats", "1",
            "--holdout-fraction", "0.5", "--format", "csv", "--out", tmp_path / "curve.csv"]
    assert cli.main([str(a) for a in argv]) == 0
    assert cli.main([str(a) for a in ["score", *pair, "--out", tmp_path / "score.json"]]) == 0
    return tmp_path


@pytest.mark.parametrize(
    "name, text",
    [
        ("data.csv", DATA_CSV),
        ("data.manifest.json", MANIFEST),
        ("model.json", MODEL),
        ("report.json", REPORT_JSON),
        ("report.csv", REPORT_CSV),
        ("curve.csv", CURVE_CSV),
        ("score.json", SCORE_JSON),
    ],
)
def test_file_bytes(files, name, text):
    assert (files / name).read_bytes() == text.encode("utf-8")

