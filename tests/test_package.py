"""The package's public names, and what importing it and running a command
that makes no exact solve loads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import affine_transport

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "AffineMap", "AffineTransportError", "BadFraction", "BadSpec",
    "DegenerateInput", "DimensionMismatch", "DomainSpec", "FitMeta",
    "GaussianModel", "IndefiniteMatrix", "LearningCurvePoint", "MAX_EXACT", "MalformedCsv",
    "MalformedModel", "MissingManifest", "NonFinite", "NotSymmetric",
    "PairingMismatch", "SingularMatrix", "TooFewSamples", "TooLarge",
    "TransferModel", "TransferReport", "TransitionDataset", "__version__",
    "affinity_score", "apply", "at_map", "check_paired", "dataset_fingerprint",
    "empirical_w2", "estimate_moments", "evaluate", "evaluate_pointwise", "fit",
    "gaussian_ot_map", "gaussian_w2", "gelbrich_gap_bound", "gen_linear",
    "gen_puck", "learning_curve", "load_csv", "load_model", "load_pair",
    "normal_approx_bound", "pair_specs", "pointwise_error", "procrustes", "rng_stream", "save_dataset", "save_model",
    "spd_sqrt", "split", "subset",
}


def test_public_names_are_the_modules_all_lists():
    names = affine_transport.__all__
    assert len(names) == len(set(names)) == 54
    assert set(names) == PUBLIC
    for name in names:
        assert hasattr(affine_transport, name), name
    # the command line front end is not part of the library API
    modules = [importlib.import_module(f"affine_transport.{m.name}")
               for m in pkgutil.iter_modules(affine_transport.__path__) if m.name != "cli"]
    declared = Counter(name for module in modules for name in module.__all__)
    assert set(declared) <= set(names)
    assert [name for name, count in declared.items() if count > 1] == []


# Runs in a fresh interpreter, so the modules the test suite has already
# loaded do not count. Prints the scipy modules loaded after each step.
_STEPS = r"""
import contextlib, io, json, os, shutil, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import affine_transport
from affine_transport.cli import main
loaded["import"] = scipy_modules()

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue() + err.getvalue()

for name in ("small", "large", "bare"):
    os.mkdir(name)
code, _ = run("synth", "--kind", "puck", "--n", 100, "--seed", 3, "--out", "small")
assert code == 0
loaded["synth"] = scipy_modules()
code, _ = run("learning-curve", "--source", "small/source.csv",
              "--target", "small/target.csv", "--sizes", "8,32", "--repeats", 2,
              "--out", "curve.json")
assert code == 0
loaded["learning-curve"] = scipy_modules()
assert run("synth", "--kind", "linear", "--n", 4097, "--out", "large")[0] == 0
code, text = run("fit", "--source", "large/source.csv",
                 "--target", "large/target.csv", "--out", "large.json")
assert code == 0 and "rho_aff=n/a" in text, text
loaded["fit above the cap"] = scipy_modules()
shutil.copy("small/source.csv", "bare/source.csv")
code, text = run("fit", "--source", "bare/source.csv",
                 "--target", "small/target.csv", "--out", "bare.json")
assert code != 0 and "error[MissingManifest]" in text, text
loaded["fit without a manifest"] = scipy_modules()
code, _ = run("score", "--source", "small/source.csv", "--target", "small/target.csv")
assert code == 0
loaded["score"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_commands_that_make_no_exact_solve_never_load_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _STEPS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    score = loaded.pop("score")
    steps = ["import", "synth", "learning-curve", "fit above the cap", "fit without a manifest"]
    assert loaded == dict.fromkeys(steps, [])
    # the first exact solve loads scipy's assignment extension and no other
    # scipy module
    assert score == ["scipy.optimize._lsap"]
