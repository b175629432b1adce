"""Record the values the current code gives on every workload, per seed.

    python3 perfbench/make_golden.py --seeds 0-31

The benchmark compares every run whose workload, size and seed appear in
``golden.json`` with these values (``checks.golden``). The committed file
holds the values of the commit that introduced the benchmark; regenerate it
only when a change of output is intended, and say so in that change.
The file is written from scratch, once every workload and seed has been
recorded. A job whose outputs fail any other check stops the recording and
leaves the file as it was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import worker
from workloads import WORKLOADS


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    os.environ.update(worker.BLAS_ENV)  # before numpy is imported
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST")
    args = p.parse_args(argv)

    import checks
    from run import git_sha, tree_sha256

    doc: dict = {"recorded_at": {"git_sha": git_sha(),
                                 "src_sha256": tree_sha256(worker.ROOT / "src")}}
    cli = worker.import_cli()
    for name, wl in sorted(WORKLOADS.items()):
        seeds = {}
        for seed in args.seeds:
            work = worker.ROOT / ".perfbench_work" / f"golden-{os.getpid()}"
            try:
                worker.setup(cli, wl, work, seed, wl.n)
                run = worker.Run(cli, wl, work, seed, wl.n)
                job = run.job()
                if run.failed:
                    print("\n".join(run.failures), file=sys.stderr)
                    return 1
                seeds[str(seed)] = checks.values(work, job["stdouts"], {})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed} recorded", flush=True)
        doc[name] = {"n": wl.n, "seeds": seeds}
    checks.GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
