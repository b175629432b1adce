"""Acceptance gate for the package's quantitative claims.

Every criterion the library ships under is checked here at its stated
tolerance. Each test prints one summary line (run with ``pytest -s`` to see
them) of the form ``[criterion NN] PASS/FAIL: measured vs threshold`` and
then asserts, so a red run names exactly which guarantee broke and by how
much.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from affine_transport import (
    GaussianModel,
    at_map,
    empirical_w2,
    estimate_moments,
    evaluate,
    fit,
    gaussian_ot_map,
    gaussian_w2,
    gelbrich_gap_bound,
    normal_approx_bound,
    rng_stream,
    spd_sqrt,
    split,
)
from affine_transport.cli import main
from helpers import (
    affine_rows_pair,
    brute_force_w2,
    linear_pair,
    puck_pair,
    random_orthogonal,
    random_spd,
)


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gaussian_closed_form():
    p1 = GaussianModel([0.0], [[1.0]])
    q1 = GaussianModel([3.0], [[4.0]])
    p2 = GaussianModel([0.0, 0.0], [[1.0, 0.0], [0.0, 4.0]])
    q2 = GaussianModel([0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    gaussian_w2(p1, q1)  # warm up lazy imports before timing
    elapsed = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        d1 = gaussian_w2(p1, q1)
        d2 = gaussian_w2(p2, q2)
        elapsed = min(elapsed, time.perf_counter() - t0)
    deviation = max(abs(d1 - np.sqrt(10.0)), abs(d2 - np.sqrt(2.0)))
    _verdict(
        1,
        deviation <= 1e-9 and elapsed < 1e-3,
        f"max deviation {deviation:.2e} (tol 1e-09), "
        f"runtime {elapsed * 1e3:.3f} ms (cap 1 ms)",
    )


def test_criterion_02_solver_matches_enumeration():
    rng = np.random.default_rng(20260822)
    empirical_w2(np.zeros((1, 1)), np.ones((1, 1)))  # warm up lazy imports before timing
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        solved = empirical_w2(x, y)
        worst = max(worst, abs(solved - brute_force_w2(x, y)))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        worst <= 1e-10 and elapsed < 5.0,
        f"max |solver - enumeration| {worst:.2e} over 100 instances (tol 1e-10), "
        f"runtime {elapsed:.2f} s (cap 5 s)",
    )


def test_criterion_03_spd_map_recovery():
    # the target sample is drawn independently through the map; building it
    # from the same rows would hand back the matrix exactly at any n and
    # check nothing
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        p = random_spd(rng, 4, spread=3.0)
        x = rng.standard_normal((20000, 4))
        y = rng.standard_normal((20000, 4)) @ p.T
        a_hat = at_map(x, y).matrix
        worst = max(worst, np.linalg.norm(a_hat - p) / np.linalg.norm(p))
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        worst <= 0.05 and elapsed < 10.0,
        f"max relative matrix error {worst:.4f} over 10 seeds (cap 0.05), "
        f"runtime {elapsed:.2f} s (cap 10 s)",
    )


def test_criterion_04_full_affine_recovery():
    worst_m = 0.0
    worst_b = 0.0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        u = random_orthogonal(rng, 4)
        v = random_orthogonal(rng, 4)
        sig = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), size=4))
        m = (u * sig) @ v.T
        assert np.linalg.norm(m - m.T) > 0.1  # want the genuinely non-symmetric regime
        b = rng.normal(size=4) * 1.5
        while np.linalg.norm(b) < 1.0:
            b = rng.normal(size=4) * 1.5
        src, tgt = affine_rows_pair(seed, 20000, 1, 2, m, offset=b)
        comp = fit(src, tgt).composed
        worst_m = max(worst_m, np.linalg.norm(comp.matrix - m) / np.linalg.norm(m))
        worst_b = max(worst_b, np.linalg.norm(comp.offset - b) / np.linalg.norm(b))
    _verdict(
        4,
        worst_m <= 0.08 and worst_b <= 0.05,
        f"max relative matrix error {worst_m:.4f} (cap 0.08), "
        f"max relative offset error {worst_b:.4f} (cap 0.05), 10 seeds",
    )


N_BOUND_SEEDS = 20
_FAMILIES = ("cube", "mixture")


def _draw_family(family, rng):
    if family == "cube":
        scale = rng.uniform(0.5, 2.0, size=3)
        shift = rng.uniform(-1.0, 1.0, size=3)
        return rng.uniform(0.0, 1.0, size=(1000, 3)) * scale + shift
    center = rng.uniform(0.5, 1.5, size=3)
    width = float(rng.uniform(0.2, 0.5))
    signs = rng.integers(0, 2, size=1000) * 2 - 1
    return signs[:, None] * center + rng.normal(0.0, width, size=(1000, 3))


def _bound_record(task):
    family, seed = task
    rng = rng_stream(seed, "accept-" + family)
    x = _draw_family(family, rng)
    y = _draw_family(family, rng)
    mx = estimate_moments(x)
    my = estimate_moments(y)
    nx = GaussianModel(mx.mean, mx.covariance)
    ny = GaussianModel(my.mean, my.covariance)
    w2_emp = empirical_w2(x, y)
    transported = gaussian_ot_map(nx, ny).apply(x)
    w2_after = empirical_w2(transported, y)
    z = rng_stream(seed, "accept-normal-" + family).standard_normal((1000, 3))
    gauss_draw = mx.mean + z @ spd_sqrt(mx.covariance)
    w2_self = empirical_w2(gauss_draw, x)
    return {
        "family": family,
        "w2_emp": w2_emp,
        "w2_gauss": gaussian_w2(nx, ny),
        "gap_bound": gelbrich_gap_bound(nx, ny),
        "w2_after": w2_after,
        "bound_target": normal_approx_bound(my.covariance),
        "w2_self": w2_self,
        "bound_self": normal_approx_bound(mx.covariance),
    }


_BOUND_TASKS = [(family, seed) for family in _FAMILIES for seed in range(N_BOUND_SEEDS)]


@pytest.fixture(scope="module")
def bound_instances():
    """Shared non-Gaussian sample pairs with all bound-related quantities.

    The instances are independent and their solves dominate the suite, so
    they run in up to two forked processes where fork exists; the records are
    the serial ones either way. Fork is safe here: the suite starts no Python
    thread, and OpenBLAS stops its thread pool before a fork.
    """
    workers = min(2, os.cpu_count() or 1, len(_BOUND_TASKS))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_bound_record(task) for task in _BOUND_TASKS]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(_bound_record, _BOUND_TASKS)


def test_bound_instances_match_a_serial_run(bound_instances):
    assert bound_instances[-1] == _bound_record(_BOUND_TASKS[-1])


def test_criterion_05_gaussian_lower_bound(bound_instances):
    worst = max(r["w2_gauss"] / r["w2_emp"] for r in bound_instances)
    _verdict(
        5,
        worst <= 1.05,
        f"max gaussian/empirical W2 ratio {worst:.4f} over "
        f"{len(bound_instances)} cube and mixture instances (cap 1.05)",
    )


def test_criterion_06_gap_and_budget_bounds(bound_instances):
    gap_ratio = max(
        abs(r["w2_emp"] - r["w2_gauss"]) / r["gap_bound"] for r in bound_instances
    )
    self_ratio = max(r["w2_self"] / r["bound_self"] for r in bound_instances)
    after_ratio = max(r["w2_after"] / r["bound_target"] for r in bound_instances)
    raw_scores = [1.0 - r["w2_after"] / r["bound_target"] for r in bound_instances]
    unit_fraction = sum(0.0 <= v <= 1.0 for v in raw_scores) / len(raw_scores)
    ok = (
        gap_ratio <= 1.05
        and self_ratio <= 1.05
        and after_ratio <= 1.05
        and unit_fraction >= 0.95
    )
    _verdict(
        6,
        ok,
        f"max gap/bound {gap_ratio:.4f}, normal-approx {self_ratio:.4f}, "
        f"transported {after_ratio:.4f} (caps 1.05); "
        f"raw score in unit interval {unit_fraction:.0%} (floor 95%)",
    )


def test_criterion_07_puck_transfer_analog():
    empirical_w2(np.zeros((1, 1)), np.ones((1, 1)))  # warm up lazy imports before timing
    t0 = time.perf_counter()
    src, tgt = puck_pair(2026, 400, noise=0.01)
    fit_s, hold_s = split(src, (0.5, 0.5), 7)
    fit_t, hold_t = split(tgt, (0.5, 0.5), 7)
    model = fit(fit_s, fit_t)
    report = evaluate(model, hold_s, hold_t)
    elapsed = time.perf_counter() - t0
    before = report.error_before_mean
    after = report.error_after_mean
    ok = after <= 0.5 * before and report.rho_aff >= 0.9 and elapsed < 5.0
    _verdict(
        7,
        ok,
        f"held-out error {before:.4f} -> {after:.4f} "
        f"(cap {0.5 * before:.4f}), rho_aff {report.rho_aff:.3f} (floor 0.9), "
        f"runtime {elapsed:.2f} s (cap 5 s)",
    )


def test_criterion_08_learning_curve_shape(tmp_path):
    pair = tmp_path / "pair"
    pair.mkdir()
    assert (
        main(
            [
                "synth", "--kind", "linear", "--n", "1024", "--seed", "8",
                "--target-scales", "2.0,0.5,1.3", "--noise", "0.05",
                "--out", str(pair),
            ]
        )
        == 0
    )
    curve_path = tmp_path / "curve.json"
    assert (
        main(
            [
                "learning-curve",
                "--source", str(pair / "source.csv"),
                "--target", str(pair / "target.csv"),
                "--sizes", "8,32,128,512", "--repeats", "20", "--seed", "8",
                "--out", str(curve_path),
            ]
        )
        == 0
    )
    points = json.loads(curve_path.read_text())
    means = [p["mean_error"] for p in points]
    stds = [p["std_error"] for p in points]
    ok = all(means[i + 1] <= means[i] + stds[i] for i in range(len(points) - 1))
    shape = " -> ".join(f"{m:.4f}" for m in means)
    _verdict(
        8,
        ok,
        f"mean held-out error over sizes 8/32/128/512: {shape} "
        "(non-increasing within 1 std, 20 repeats)",
    )


def test_criterion_09_cli_determinism(tmp_path):
    transcripts = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        pair = root / "pair"
        pair.mkdir(parents=True)
        model = root / "model.json"
        report = root / "report.json"
        curve = root / "curve.csv"
        score = root / "score.json"
        commands = [
            [
                "synth", "--kind", "linear", "--n", "256", "--seed", "9",
                "--target-scales", "1.6,0.7,1.1", "--target-invert", "1",
                "--noise", "0.02", "--out", str(pair),
            ],
            [
                "fit", "--source", str(pair / "source.csv"),
                "--target", str(pair / "target.csv"), "--out", str(model),
            ],
            [
                "eval", "--model", str(model), "--source", str(pair / "source.csv"),
                "--target", str(pair / "target.csv"), "--out", str(report),
            ],
            [
                "learning-curve", "--source", str(pair / "source.csv"),
                "--target", str(pair / "target.csv"), "--sizes", "16,64",
                "--repeats", "3", "--seed", "9", "--format", "csv",
                "--out", str(curve),
            ],
            [
                "score", "--source", str(pair / "source.csv"),
                "--target", str(pair / "target.csv"), "--out", str(score),
            ],
        ]
        for argv in commands:
            assert main(argv) == 0, argv[0]
        blob = b"".join(
            p.read_bytes()
            for p in (
                pair / "source.csv", pair / "target.csv",
                pair / "source.manifest.json", pair / "target.manifest.json",
                model, report, curve, score,
            )
        )
        transcripts.append(blob)
    ok = transcripts[0] == transcripts[1]
    _verdict(
        9,
        ok,
        "synth/fit/eval/learning-curve/score reruns are byte-identical"
        if ok
        else "rerun outputs differ",
    )


def test_criterion_10_rank_deficient_robustness():
    base = rng_stream(10, "accept-deficient")
    dynamics = base.standard_normal((3, 3)) / np.sqrt(3.0)
    dynamics[2, :] = 0.0  # joint 2 never moves: constant next-state coordinate
    controls = base.standard_normal((3, 2)) / np.sqrt(2.0)
    src, tgt = linear_pair(
        1010,
        400,
        dynamics=dynamics,
        controls=controls,
        target_scales=np.array([2.0, 0.5, 1.0]),
        target_disabled=(2,),
        source_disabled=(2,),
    )
    fit_s, hold_s = split(src, (0.5, 0.5), 10)
    fit_t, hold_t = split(tgt, (0.5, 0.5), 10)
    model = fit(fit_s, fit_t)
    report = evaluate(model, hold_s, hold_t)
    finite = all(
        np.isfinite(v)
        for v in (
            report.error_before_mean, report.error_after_mean,
            report.w2_before, report.w2_after, report.rho_aff, report.bound_value,
        )
    )
    ok = finite and report.error_after_mean < report.error_before_mean
    _verdict(
        10,
        ok,
        f"constant-coordinate pair: fit/eval completed, held-out error "
        f"{report.error_before_mean:.4f} -> {report.error_after_mean:.4f} "
        "(must decrease)",
    )
