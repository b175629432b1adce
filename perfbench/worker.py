"""One benchmark process: generate a workload's inputs, then run its jobs.

``run.py`` starts this file once per set-up sample and once more for the
measurement; it is not meant to be called by hand. The process pins BLAS to
one thread before numpy loads, imports ``affine_transport`` from the
checkout's ``src/``, runs ``synth`` for the inputs and prints ``@ready``. A
measuring process then runs jobs in a closed loop (each command starts when
the previous one has ended, nothing else runs) and prints ``@result`` with a
JSON document.

With ``--trace 1`` the budget is split: an untraced half, then a half with
the tracer's wrappers installed. The per-layer numbers come from the second
half and the difference in job time between the halves is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (metric, span name, stat). Stats are per job; the median over traced jobs
# is reported. Spans that never ran on a workload report 0.
LAYER_METRICS = (
    ("discrete_ot.assignment.s", "discrete_ot.assignment", "s"),
    ("discrete_ot.assignment.calls", "discrete_ot.assignment", "calls"),
    ("discrete_ot.empirical_w2.self_s", "discrete_ot.empirical_w2", "self_s"),
    ("discrete_ot.empirical_w2.calls", "discrete_ot.empirical_w2", "calls"),
    ("discrete_ot.cost_matrix.s", "discrete_ot.cost_matrix", "s"),
    ("discrete_ot.cost_matrix.bytes", "discrete_ot.cost_matrix", "bytes"),
    ("data.load_csv.s", "data.load_csv", "s"),
    ("data.save_dataset.s", "data.save_dataset", "s"),
    ("data.dataset_fingerprint.s", "data.dataset_fingerprint", "s"),
    ("linalg.estimate_moments.s", "linalg.estimate_moments", "s"),
    ("linalg.estimate_moments.calls", "linalg.estimate_moments", "calls"),
    ("gaussian_ot.at_map.s", "gaussian_ot.at_map", "s"),
    ("transfer.procrustes.s", "transfer.procrustes", "s"),
    ("transfer.fit.self_s", "transfer.fit", "self_s"),
    ("transfer.evaluate.self_s", "transfer.evaluate", "self_s"),
    ("transfer.affinity_score.self_s", "transfer.affinity_score", "self_s"),
    ("cli.self_s", "cli", "self_s"),
)
TRACE_METRICS = ("trace.overhead_s", "trace.overhead_frac", "trace.self_sum_frac")
MAX_FAILURE_MESSAGES = 20
MIN_JOBS = 2


def import_cli():
    """Import the CLI from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from affine_transport import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"affine_transport was imported from {cli.__file__}, not {src}")
    return cli


def setup(cli, wl, work: Path, seed: int, n: int) -> None:
    """Create the workload's inputs under ``work`` with the package's synth."""
    for sub in ("train", "holdout"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    for argv in wl.setup_argvs(work, seed, n):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"input generation {argv} exited {rc}")


class Run:
    """Jobs of one workload in one process, with the output checks they need."""

    def __init__(self, cli, wl, work: Path, seed: int, n: int):
        import checks  # imports numpy, so only after main() has pinned BLAS

        self.checks = checks
        self.cli = cli
        self.wl = wl
        self.work = work
        self.seed = seed
        self.n = n
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.values_checked = False

    def _call(self, argv, tracer) -> tuple[int, str]:
        buf = io.StringIO()
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(buf), span:
                rc = self.cli.main(list(argv))
        except Exception:  # a traceback is a failed command, not a dead benchmark
            traceback.print_exc()
            rc = -1
        return rc, buf.getvalue()

    def job(self, tracer=None) -> dict:
        """Run one pass of the workload's commands, then check their outputs."""
        cmds = self.wl.job(self.work, self.seed, self.n)
        times, stdouts, codes = {}, {}, {}
        start = time.perf_counter()
        for cmd in cmds:
            t0 = time.perf_counter()
            codes[cmd.name], stdouts[cmd.name] = self._call(cmd.argv, tracer)
            times[cmd.name] = time.perf_counter() - t0
        wall = time.perf_counter() - start
        spans = tracer.take() if tracer else None

        errors = {cmd.name: [] for cmd in cmds}
        for cmd in cmds:
            if codes[cmd.name] != 0:
                errors[cmd.name].append(f"exited {codes[cmd.name]}")
                continue
            try:
                errors[cmd.name] += self.checks.invariants(
                    self.wl, cmd, self.work, stdouts[cmd.name], self.n)
                d = self.checks.digest(self.work, cmd, stdouts[cmd.name])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors[cmd.name].append(f"output unreadable: {exc!r}")
                continue
            if self.digests.setdefault(cmd.name, d) != d:
                errors[cmd.name].append("output differs from the first job's")
        if not self.values_checked and not any(errors.values()):
            self.values_checked = True
            for name, msgs in self._value_errors(stdouts).items():
                errors[name] += msgs
        for name, msgs in errors.items():
            self.attempted += 1
            if msgs:
                self.failed += 1
                for msg in msgs:
                    if len(self.failures) < MAX_FAILURE_MESSAGES:
                        self.failures.append(f"{self.wl.name} {name}: {msg}")
        return {"wall": wall, "commands": times, "spans": spans, "stdouts": stdouts}

    def _value_errors(self, stdouts) -> dict:
        cache: dict = {}
        errors = self.checks.reference(self.work, stdouts, cache)
        expected = self.checks.golden_entry(self.wl, self.n, self.seed)
        if expected is not None:
            vals = self.checks.values(self.work, stdouts, cache)
            for name, msgs in self.checks.golden(vals, expected).items():
                errors.setdefault(name, []).extend(msgs)
        return errors

    def loop(self, seconds: float, tracer=None) -> list[dict]:
        """Closed loop: run jobs until another would end past ``seconds``.

        At least ``MIN_JOBS`` run, so a job longer than half the budget still
        gives a median of two and a second job to compare outputs with.
        """
        jobs, laps = [], []
        start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            jobs.append(self.job(tracer))
            laps.append(time.perf_counter() - lap)
            if (len(jobs) >= MIN_JOBS
                    and time.perf_counter() - start + statistics.median(laps) > seconds):
                return jobs


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict, bool]:
    """Per-layer metrics (medians over traced jobs), self time by span, hygiene."""
    from tracing import layer_stats

    per_job = []
    self_by_span: dict[str, list[float]] = {}
    self_sum_ok = True
    for job in traced:
        stats = layer_stats(job["spans"])
        row = {m: stats.get(span, {}).get(stat, 0) for m, span, stat in LAYER_METRICS}
        self_sum = sum(s["self_s"] for s in stats.values())
        row["trace.self_sum_frac"] = self_sum / job["wall"]
        self_sum_ok &= self_sum <= job["wall"]
        per_job.append(row)
        for name, s in stats.items():
            self_by_span.setdefault(name, []).append(s["self_s"])
    metrics = {k: statistics.median(r[k] for r in per_job) for k in per_job[0]}
    base = statistics.median(j["wall"] for j in untraced)
    metrics["trace.overhead_s"] = statistics.median(j["wall"] for j in traced) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
    self_med = {k: statistics.median(v) for k, v in self_by_span.items()}
    return metrics, self_med, self_sum_ok


def measure(cli, wl, work: Path, seed: int, n: int, seconds: float, trace: bool) -> dict:
    """Run the timed loop, or with ``trace`` the untraced and traced halves."""
    run = Run(cli, wl, work, seed, n)
    result: dict = {}
    if not trace:
        jobs = run.loop(seconds)
    else:
        import tracing

        jobs = run.loop(seconds / 2)
        before = tracing.originals()
        with tracing.Tracer().installed() as tracer:
            traced = run.loop(seconds / 2, tracer)
        after = tracing.originals()
        restored = all(after[k] is v for k, v in before.items())
        layers, self_by_span, self_sum_ok = layer_metrics(traced, jobs)
        result.update(layers=layers, self_by_span=self_by_span,
                      hygiene={"restored": restored, "self_sum_le_wall": self_sum_ok},
                      traced_jobs=[{"wall": j["wall"], "commands": j["commands"]} for j in traced])
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
        jobs=[{"wall": j["wall"], "commands": j["commands"]} for j in jobs],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)  # before numpy is imported
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    cli = import_cli()
    setup(cli, wl, args.work, args.seed, wl.n)
    print("@ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(cli, wl, args.work, args.seed, wl.n, args.seconds, bool(args.trace))
    result["env"] = environment()
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
