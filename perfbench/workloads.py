"""The benchmark's workloads: which pair each one generates and which CLI
commands one pass (a "job") runs on it.

Stdlib only, so the parent process can validate a workload name without
importing numpy. Every input is generated from the workload seed through the
package's own ``synth`` command; the commands then see only those files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The puck pair of the paper's benchmark domain: target friction and curl
# differ from the source. The start-state block is identically zero, so the
# triplet covariance is rank-deficient.
PUCK_PAIR = ("--kind", "puck", "--target-friction", "0.1,0.4", "--target-curl", "0.3",
             "--noise", "0.01")
# The README's linear pair (d=3, k=2).
LINEAR_PAIR = ("--kind", "linear", "--target-scales", "2.0,0.5,1.3", "--noise", "0.05")

# The exact-puck holdout pair is drawn with this offset added to the seed, so
# eval scores the model on rows it was not fitted on.
HOLDOUT_SEED_OFFSET = 1000


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a job and the files it writes."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    commands: tuple[str, ...]
    why: str

    def pair_args(self) -> tuple[str, ...]:
        return PUCK_PAIR if self.family == "puck" else LINEAR_PAIR

    def setup_argvs(self, work: Path, seed: int, n: int) -> list[list[str]]:
        """synth invocations that create the inputs of every job."""
        def synth(out, s):
            return ["synth", *self.pair_args(), "--n", str(n), "--seed", str(s), "--out", str(out)]

        argvs = [] if "synth" in self.commands else [synth(work / "train", seed)]
        if "eval" in self.commands:
            argvs.append(synth(work / "holdout", seed + HOLDOUT_SEED_OFFSET))
        return argvs

    def job(self, work: Path, seed: int, n: int) -> list[Command]:
        """The commands of one pass, in order; each runs after the previous one ends."""
        w = str(work)
        train = ("--source", f"{w}/train/source.csv", "--target", f"{w}/train/target.csv")
        seed_arg = ("--seed", str(seed))
        cmds = {
            "synth": Command(
                "synth",
                ("synth", *self.pair_args(), "--n", str(n), *seed_arg, "--out", f"{w}/train"),
                ("train/source.csv", "train/target.csv",
                 "train/source.manifest.json", "train/target.manifest.json"),
            ),
            "fit": Command(
                "fit", ("fit", *train, *seed_arg, "--out", f"{w}/model.json"), ("model.json",)
            ),
            "eval": Command(
                "eval",
                ("eval", "--model", f"{w}/model.json", "--source", f"{w}/holdout/source.csv",
                 "--target", f"{w}/holdout/target.csv", *seed_arg, "--out", f"{w}/report.json"),
                ("report.json",),
            ),
            "score": Command(
                "score", ("score", *train, *seed_arg, "--out", f"{w}/score.json"), ("score.json",)
            ),
            "learning-curve": Command(
                "learning-curve",
                ("learning-curve", *train, *seed_arg, "--out", f"{w}/curve.json"),
                ("curve.json",),
            ),
        }
        return [cmds[name] for name in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-puck-4096", "puck", 4096, ("fit", "eval", "score"),
            "puck pair at n=4096, the exact-solver cap; fit+eval+score. The paper's domain, "
            "rank-deficient covariance; the assignment solve is ~90% of wall time",
        ),
        Workload(
            "bulk-linear-200k", "linear", 200_000, ("synth", "fit"),
            "linear pair at 200k rows, above the cap; synth+fit. CSV write and parse dominate "
            "and the assignment solve never runs",
        ),
        # The learning curve re-solves one holdout W2 80 times, so that solve's
        # seed-dependent cost is paid 80 times over. On the linear pair it takes
        # 0.01-0.38 s, and a curve at n=4096 took 4-28 s per seed. On the puck pair
        # at n=4096 a curve took 11.7-15.9 s per seed; at n=2048, 2.2-2.8 s.
        Workload(
            "curve-puck-2048", "puck", 2048, ("learning-curve",),
            "puck pair at n=2048; learning-curve with default flags: 80 small fits and "
            "160 exact solves at n=512, many mid-size calls instead of a few at the cap",
        ),
    )
}
