"""Output checks for every benchmark command.

Three kinds, all outside the timed region:

* ``invariants`` runs after every command: the output files parse, rho is in
  [0, 1], the fitted rotation is orthogonal, eval improves on the puck pair,
  the learning curve does not rise with the fit size, and so on.
* ``reference`` runs once per process on the first job: numbers that can be
  recomputed cheaply from the CSVs with plain numpy (pointwise errors, the
  normal-approximation bound, the moments the fitted map pushes forward) are
  recomputed and compared.
* ``golden`` compares ``values`` of the first job with the values the seed
  commit produced for the same workload, size and seed (``golden.json``,
  written by ``make_golden.py``), within ``REL_TOL``.

Byte-identical output across the jobs of one run is checked by the caller
with ``digest``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Command, Workload

# Tolerance for agreeing with the seed commit and with the numpy recomputation:
# |value - expected| <= REL_TOL * |expected| + ABS_TOL. Loose enough for a
# reordered float sum, tight enough for any change of definition.
REL_TOL = 1e-6
ABS_TOL = 1e-9
# The fitted map sends the source moments onto the ridge-regularised target
# moments, so the pushed-forward covariance differs from the target sample
# covariance by the two ridges (1e-9 of the mean variance each) times |A|^2.
PUSH_TOL = 1e-6
ORTHO_TOL = 1e-8

REPORT_FIELDS = ("error_before_mean", "error_before_std", "error_after_mean",
                 "error_after_std", "w2_before", "w2_after", "rho_aff", "bound_value")
CURVE_SIZES = (8, 32, 128, 512)
CURVE_REPEATS = 20
MAX_EXACT = 4096
STATE_ACTION_DIMS = {"linear": (3, 2), "puck": (2, 2)}

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(work: Path, cmd: Command, stdout: str) -> str:
    """Hash of a command's stdout and every file it wrote."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    for rel in cmd.outputs:
        h.update(b"\0" + rel.encode("utf-8") + b"\0")
        h.update((work / rel).read_bytes())
    return h.hexdigest()


def _kv(text: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def _close(value, expected, rel=REL_TOL, abs_=ABS_TOL) -> bool:
    return abs(value - expected) <= rel * abs(expected) + abs_


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _rows(path: Path, cache: dict) -> np.ndarray:
    if path not in cache:
        cache[path] = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return cache[path]


def _model(work: Path):
    """The saved model as (document, R, A, b)."""
    doc = _json(work / "model.json")
    dim = doc["dim"]
    r = np.asarray(doc["R"], dtype=float).reshape(dim, dim)
    a = np.asarray(doc["A"], dtype=float).reshape(dim, dim)
    return doc, r, a, np.asarray(doc["b"], dtype=float)


def _rho_ok(rho) -> bool:
    return isinstance(rho, float) and 0.0 <= rho <= 1.0


def invariants(wl: Workload, cmd: Command, work: Path, stdout: str, n: int) -> list[str]:
    """Cheap checks of one command's outputs; returns the failures found."""
    errors = []
    out = _kv(stdout)
    if cmd.name == "synth":
        if out.get("n") != str(n) or out.get("kind") != wl.family:
            errors.append(f"synth summary does not match the request: {stdout.strip()!r}")
        for side in ("source", "target"):
            manifest = _json(work / "train" / f"{side}.manifest.json")
            if (manifest["state_dim"], manifest["action_dim"]) != STATE_ACTION_DIMS[wl.family]:
                errors.append(f"{side} manifest has dims {manifest}")
            lines = (work / "train" / f"{side}.csv").read_bytes().count(b"\n")
            if lines != n + 1:
                errors.append(f"{side}.csv has {lines} lines, expected {n + 1}")
    elif cmd.name == "fit":
        doc, r, a, b = _model(work)
        if float(np.abs(r.T @ r - np.eye(doc["dim"])).max()) > ORTHO_TOL:
            errors.append("model rotation R is not orthogonal")
        if not np.allclose(a, a.T, rtol=0.0, atol=ORTHO_TOL * (1.0 + np.abs(a).max())):
            errors.append("model matrix A is not symmetric")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            errors.append("model has non-finite entries")
        if out.get("n") != str(n) or doc["meta"]["n_fit"] != n:
            errors.append(f"fit summary n does not match {n}: {stdout.strip()!r}")
        rho = out.get("rho_aff")
        if n > MAX_EXACT:
            if rho != "n/a":
                errors.append(f"fit above the exact cap printed rho_aff={rho}")
        elif rho is None or not _rho_ok(float(rho)):
            errors.append(f"fit rho_aff out of [0, 1]: {rho}")
    elif cmd.name == "eval":
        rep = _json(work / "report.json")
        missing = [f for f in REPORT_FIELDS if not isinstance(rep.get(f), float)]
        if missing:
            return [f"report lacks float fields {missing}"]
        if not _rho_ok(rep["rho_aff"]):
            errors.append(f"eval rho_aff out of [0, 1]: {rep['rho_aff']}")
        clamped = min(1.0, max(0.0, 1.0 - rep["w2_after"] / rep["bound_value"]))
        if not _close(rep["rho_aff"], clamped, rel=1e-12, abs_=1e-12):
            errors.append("eval rho_aff is not 1 - w2_after / bound_value")
        if float(out.get("rho_aff", "nan")) != rep["rho_aff"]:
            errors.append("eval printed a different rho_aff than it wrote")
        if rep["n_eval"] != n or rep["eval_on_fit_data"] is not False:
            errors.append(f"eval n_eval={rep['n_eval']} on_fit={rep['eval_on_fit_data']}")
        if wl.family == "puck":
            if not rep["w2_after"] <= rep["w2_before"]:
                errors.append(f"w2_after {rep['w2_after']} > w2_before {rep['w2_before']}")
            if not rep["error_after_mean"] < rep["error_before_mean"]:
                errors.append("error_after_mean is not below error_before_mean")
    elif cmd.name == "score":
        doc = _json(work / "score.json")
        if not _rho_ok(doc.get("rho_aff")) or doc.get("n") != n:
            errors.append(f"score file out of range: {doc}")
        elif float(out.get("rho_aff", "nan")) != doc["rho_aff"]:
            errors.append("score printed a different rho_aff than it wrote")
    elif cmd.name == "learning-curve":
        rows = _json(work / "curve.json")
        sizes = tuple(r["n_fit"] for r in rows)
        if sizes != CURVE_SIZES or any(r["repeats"] != CURVE_REPEATS for r in rows):
            return [f"curve has sizes {sizes}, expected {CURVE_SIZES} x {CURVE_REPEATS}"]
        means = [r["mean_error"] for r in rows]
        stds = [r["std_error"] for r in rows]
        if not all(math.isfinite(m) and m >= 0.0 for m in means + stds):
            errors.append(f"curve errors not finite and non-negative: {rows}")
        # The shape acceptance criterion 08 defines: each mean is at most the
        # previous size's mean plus its std. A strict decrease does not hold
        # at every seed: on the README's linear pair at seed 7 the error rises
        # from 0.2079 to 0.2150 between n_fit 128 and 512.
        if any(b > a + s for a, b, s in zip(means, means[1:], stds)):
            errors.append(f"mean_error rises by more than one std with n_fit: {means}")
        if stdout.count("learning-curve:") != len(CURVE_SIZES):
            errors.append("learning-curve did not print one line per size")
    return errors


def reference(work: Path, stdouts: dict[str, str], cache: dict) -> dict:
    """Recompute what plain numpy can cheaply; returns {command: [failures]}."""
    errors: dict[str, list[str]] = {}
    if "fit" in stdouts:
        _, r, a, b = _model(work)
        composed = a @ r
        xs = _rows(work / "train" / "source.csv", cache)
        xt = _rows(work / "train" / "target.csv", cache)
        moved = xs @ composed.T + b
        cov_t = np.cov(xt, rowvar=False, bias=True)
        scale = float(np.trace(cov_t)) / cov_t.shape[0] * (1.0 + np.linalg.norm(composed, 2) ** 2)
        fails = []
        if not np.allclose(moved.mean(0), xt.mean(0), rtol=0.0, atol=PUSH_TOL * (1 + scale)):
            fails.append("fitted map does not carry the source mean onto the target mean")
        if not np.allclose(np.cov(moved, rowvar=False, bias=True), cov_t, rtol=0.0,
                           atol=PUSH_TOL * scale):
            fails.append("fitted map does not carry the source covariance onto the target's")
        frob = float(_kv(stdouts["fit"])["frob_A"])
        if not _close(frob, float(np.linalg.norm(composed))):
            fails.append(f"printed frob_A {frob} is not |A R|_F")
        errors["fit"] = fails
    if "eval" in stdouts:
        rep = _json(work / "report.json")
        _, r, a, b = _model(work)
        composed = a @ r
        xs = _rows(work / "holdout" / "source.csv", cache)
        xt = _rows(work / "holdout" / "target.csv", cache)
        d = _json(work / "holdout" / "source.manifest.json")["state_dim"]
        before = np.linalg.norm(xs[:, -d:] - xt[:, -d:], axis=1)
        after = np.linalg.norm((xs @ composed.T + b)[:, -d:] - xt[:, -d:], axis=1)
        tr = float(np.trace(np.cov(xt, rowvar=False, bias=True)))
        ridge = max(1e-10, 1e-9 * tr / xt.shape[1])
        expect = {
            "error_before_mean": before.mean(), "error_before_std": before.std(),
            "error_after_mean": after.mean(), "error_after_std": after.std(),
            "bound_value": math.sqrt(2.0 * (tr + xt.shape[1] * ridge)),
        }
        errors["eval"] = [f"{k}={rep[k]!r}, numpy gives {v!r}"
                          for k, v in expect.items() if not _close(rep[k], float(v))]
    return errors


def values(work: Path, stdouts: dict[str, str], cache: dict) -> dict:
    """The numbers of one job that the golden file pins, by command.name."""
    vals: dict = {}
    if "synth" in stdouts:
        for side in ("source", "target"):
            rows = _rows(work / "train" / f"{side}.csv", cache)
            for j, (m, s) in enumerate(zip(rows.mean(0), rows.std(0))):
                vals[f"synth.{side}.mean[{j}]"] = float(m)
                vals[f"synth.{side}.std[{j}]"] = float(s)
    if "fit" in stdouts:
        out = _kv(stdouts["fit"])
        vals["fit.frob_A"] = float(out["frob_A"])
        vals["fit.rho_aff"] = None if out["rho_aff"] == "n/a" else float(out["rho_aff"])
        b = _model(work)[3]
        vals.update({f"fit.b[{j}]": float(v) for j, v in enumerate(b)})
    if "eval" in stdouts:
        rep = _json(work / "report.json")
        vals.update({f"eval.{k}": rep[k] for k in REPORT_FIELDS})
    if "score" in stdouts:
        vals["score.rho_aff"] = _json(work / "score.json")["rho_aff"]
    if "learning-curve" in stdouts:
        for row in _json(work / "curve.json"):
            vals[f"learning-curve.mean_error@{row['n_fit']}"] = row["mean_error"]
            vals[f"learning-curve.std_error@{row['n_fit']}"] = row["std_error"]
    return vals


def golden_entry(wl: Workload, n: int, seed: int):
    """The seed commit's values for this run, or None when none were recorded."""
    if not GOLDEN_PATH.exists():
        return None
    entry = _json(GOLDEN_PATH).get(wl.name, {})
    if entry.get("n") != n:
        return None
    return entry.get("seeds", {}).get(str(seed))


def golden(vals: dict, expected: dict) -> dict:
    """Compare with the seed commit's values; returns {command: [failures]}."""
    errors: dict[str, list[str]] = {}
    for key, want in expected.items():
        got = vals.get(key)
        if key not in vals or got is None or want is None:
            ok = key in vals and got == want
        else:
            ok = _close(got, want)
        if not ok:
            errors.setdefault(key.split(".", 1)[0], []).append(
                f"{key}={got!r}, seed commit gave {want!r}")
    return errors
