"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The same commands and checks as the real workloads, at sizes that run in
# seconds. bulk stays above the 4096-row exact cap so fit still skips the solve.
SMOKE_N = {"exact-puck-4096": 256, "bulk-linear-200k": 5000, "curve-puck-2048": 1024}
SEED = 3


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def _unchanged(before: dict) -> bool:
    now = tracing.originals()
    return all(now[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_has_no_failed_ops(cli, tmp_path, name):
    wl, n = WORKLOADS[name], SMOKE_N[name]
    worker.setup(cli, wl, tmp_path, SEED, n)
    run = worker.Run(cli, wl, tmp_path, SEED, n)
    run.job()
    run.job()
    assert run.failures == []
    assert (run.attempted, run.failed) == (2 * len(wl.commands), 0)


def test_untraced_run_installs_no_wrapper(cli, tmp_path, monkeypatch):
    before = tracing.originals()
    seen = []
    real_main = cli.main

    def checking_main(argv):
        seen.append(_unchanged(before))
        return real_main(argv)

    def refuse(self):
        raise AssertionError("tracer installed during an untraced run")

    monkeypatch.setattr(tracing.Tracer, "installed", refuse)
    wl = WORKLOADS["exact-puck-4096"]
    worker.setup(cli, wl, tmp_path, SEED, 64)
    monkeypatch.setattr(cli, "main", checking_main)
    result = worker.measure(cli, wl, tmp_path, SEED, 64, seconds=0.0, trace=False)
    assert result["failed"] == 0 and "layers" not in result
    assert result["attempted"] == worker.MIN_JOBS * len(wl.commands)
    assert seen == [True] * (worker.MIN_JOBS * len(wl.commands))


def test_traced_run_restores_targets_and_counts_calls(cli, tmp_path):
    before = tracing.originals()
    wl = WORKLOADS["curve-puck-2048"]
    worker.setup(cli, wl, tmp_path, SEED, 1024)
    result = worker.measure(cli, wl, tmp_path, SEED, 1024, seconds=0.0, trace=True)
    assert result["failed"] == 0
    assert result["hygiene"] == {"restored": True, "self_sum_le_wall": True}
    assert _unchanged(before)
    layers = result["layers"]
    # 4 sizes x 20 repeats, two exact solves per evaluate, on the 256 holdout rows
    assert layers["discrete_ot.empirical_w2.calls"] == 160
    assert layers["discrete_ot.cost_matrix.bytes"] == 160 * 256 * 256 * 8
    assert layers["data.save_dataset.s"] == 0
    assert 0.0 < layers["trace.self_sum_frac"] <= 1.0


def test_wrappers_are_restored_when_the_block_raises(cli):
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert not _unchanged(before)
            raise RuntimeError("boom")
    assert _unchanged(before)


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 8],
        ["b", 5.0, 6.0, 0, 0],
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"] == {"s": 10.0, "self_s": 6.0, "calls": 1, "bytes": 0}
    assert stats["b"] == {"s": 4.0, "self_s": 3.0, "calls": 2, "bytes": 0}
    assert stats["c"]["bytes"] == 8
    assert sum(s["self_s"] for s in stats.values()) == 10.0


def test_checks_catch_a_rising_curve_and_a_moved_value(cli, tmp_path):
    wl = WORKLOADS["curve-puck-2048"]
    worker.setup(cli, wl, tmp_path, SEED, 1024)
    run = worker.Run(cli, wl, tmp_path, SEED, 1024)
    job = run.job()
    assert run.failed == 0
    cmd = wl.job(tmp_path, SEED, 1024)[0]
    rows = json.loads((tmp_path / "curve.json").read_text())
    rows[-1]["mean_error"] = rows[0]["mean_error"] * 2
    (tmp_path / "curve.json").write_text(json.dumps(rows))
    errors = checks.invariants(wl, cmd, tmp_path, job["stdouts"][cmd.name], 1024)
    assert any("rises" in e for e in errors)

    assert checks.golden({"fit.frob_A": 2.0 * (1 + 1e-9)}, {"fit.frob_A": 2.0}) == {}
    assert "fit" in checks.golden({"fit.frob_A": 2.0 * (1 + 1e-4)}, {"fit.frob_A": 2.0})
    assert "fit" in checks.golden({}, {"fit.rho_aff": None})


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}
    assert [m["name"] for m in doc["per_layer"]] == [
        m for m, _, _ in worker.LAYER_METRICS] + list(worker.TRACE_METRICS)
    assert all(run.unit_of(m["name"]) == m["unit"] for m in doc["per_layer"])
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "job_s", "peak_rss_mb"]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-puck-4096", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
