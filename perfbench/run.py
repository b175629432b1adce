"""Benchmark of the affine-transport CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-puck-4096 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each workload (see ``workloads.py``) runs
its CLI commands through ``affine_transport.cli.main`` in a fresh process,
one after another in a closed loop, with BLAS pinned to one thread. Set-up
(interpreter start, package import, input generation) is timed on
``SETUP_SAMPLES`` fresh processes, before and after the measuring one, and
reported as the median.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones (``setup_s``, ``job_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones from a traced run. The lines before
it give a record of the environment and the per-command times. The exit code
is 0 when a result was printed; without a loadable package under ``src/`` it
is non-zero and nothing is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import BLAS_ENV
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# The workers are killed this long after --seconds has run out: it covers the
# set-up processes, a job that starts inside the budget and ends after it, the
# second job every run makes, and the output checks.
DEADLINE_MARGIN_S = 135.0


class WorkerFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run worker.py; returns (seconds until it reported ready, its result)."""
    env = {**os.environ, **BLAS_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@ready"):
                ready = time.perf_counter() - start
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise WorkerFailed(f"worker {' '.join(args)} exited {rc}")
    return ready, result


def tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the affine-transport CLI.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "affine_transport" / "cli.py").is_file():
        print(f"error: no affine_transport package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    def setup_only(i: int) -> float:
        return spawn([*common, "--work", str(work / f"setup{i}"), "--setup-only"], deadline)[0]

    # Half of the set-up samples come before the measuring process and half
    # after it, so that they span the run as the jobs do: on a shared 2-core VM
    # the speed of both drifted by 20% and more over tens of seconds.
    try:
        setups = [setup_only(i) for i in range(SETUP_SAMPLES // 2)]
        ready, res = spawn([*common, "--work", str(work / "run")], deadline)
        setups += [ready] + [setup_only(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wl = WORKLOADS[args.workload]
    per_command = {c: summary([j["commands"][c] for j in res["jobs"]]) for c in wl.commands}
    record = {
        "workload": wl.name, "family": wl.family, "n": wl.n, "commands": list(wl.commands),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one client, each command after the previous one ends",
        "git_sha": git_sha(), "src_sha256": tree_sha256(ROOT / "src"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **res["env"],
        "samples": {"setup": len(setups), "jobs": len(res["jobs"]),
                    "traced_jobs": len(res.get("traced_jobs", []))},
        "setup_s": summary(setups),
        "job_s": summary([j["wall"] for j in res["jobs"]]),
        "command_s": per_command,
        "ops_failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
    }
    if args.trace:
        record["hygiene"] = res["hygiene"]
        record["self_s_by_span"] = dict(
            sorted(res["self_by_span"].items(), key=lambda kv: -kv[1]))
    print(json.dumps({"record": record}))
    for c, s in per_command.items():
        print(f"{wl.name} {c.replace('-', '_')}_s median={s['median']:.4f} "
              f"max={s['max']:.4f} samples={s['samples']} unit=s")

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
        hygienic = all(res["hygiene"].values())
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s": {"value": record["job_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        hygienic = True
    print(json.dumps({"correct": res["failed"] == 0 and hygienic, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
