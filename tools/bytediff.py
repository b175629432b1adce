"""Run the committed CLI cases on a base tree and on this tree, and compare
every byte they write.

Each case in ``bytediff_cases.json`` is a list of steps, run in order in a
fresh empty directory that is each step's working directory, so every path a
step names is relative. A step is an argv list whose first word says how it
runs:

    affine-transport ARGS   python -m affine_transport.cli ARGS, with the
                            tree's src/ on PYTHONPATH, in a fresh interpreter
    python ARGS             this interpreter, e.g. a -c snippet editing a file
    copy PATH DEST          copy PATH, relative to the tree, to DEST; a tree
                            without PATH records ``step N copy`` instead, so a
                            file new on one side is a difference, not a crash
    mkdir DIR ...           make directories

The base tree is a ``git worktree`` of BASE_REF in a temporary directory
outside the checkout, removed when the run ends; the other tree is the
checkout this script sits in. For every case the exit code, stdout and stderr
of each step, and the bytes of every file the case leaves, are compared. Each
difference prints as ``case: where`` (``step N exit``, ``step N stdout``,
``step N stderr``, ``step N copy`` or ``file PATH``) with the first differing line of both
sides. Float bytes may differ between numpy and BLAS builds, so the two trees
are compared in one environment, never against stored outputs.

``bytediff.allow`` names the differences a change means to make, one entry per
line, ``case: where: text``, where text is the new side's content with each
newline written as ``\\n`` and the final one dropped; ``#`` starts a comment,
which gives the reason. Exits 1 if a difference is not allowed or an entry
matches no difference, and 0 otherwise. An entry matches only against the
base it was written for, so the change after it starts from an empty list.
Standard library only:

    python tools/bytediff.py BASE_REF
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = Path(__file__).with_name("bytediff_cases.json")
ALLOWLIST = Path(__file__).with_name("bytediff.allow")
# a step that runs longer than this is a hang, not a result
STEP_TIMEOUT = 600


def load_cases() -> dict[str, list[list[str]]]:
    """Case name -> its steps, from the committed case list."""
    doc = json.loads(CASES.read_text(encoding="utf-8"))
    return {name: case["steps"] for name, case in doc.items()}


def run_case(tree: Path, steps: list[list[str]], work: Path) -> dict[str, bytes]:
    """Run ``steps`` against ``tree`` in the empty directory ``work``; returns
    what they produced, ``where`` -> bytes, outputs and files alike."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out: dict[str, bytes] = {}
    for i, (verb, *args) in enumerate(steps, 1):
        if verb == "mkdir":
            for name in args:
                (work / name).mkdir(parents=True)
            continue
        if verb == "copy":
            if (tree / args[0]).is_file():
                shutil.copyfile(tree / args[0], work / args[1])
            else:
                out[f"step {i} copy"] = f"no such file: {args[0]}".encode()
            continue
        argv = {"affine-transport": [sys.executable, "-m", "affine_transport.cli"],
                "python": [sys.executable]}[verb] + args
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True,
                              timeout=STEP_TIMEOUT)
        out[f"step {i} exit"] = str(proc.returncode).encode()
        out[f"step {i} stdout"] = proc.stdout
        out[f"step {i} stderr"] = proc.stderr
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        out[f"file {path.relative_to(work).as_posix()}"] = path.read_bytes()
    return out


def as_text(data: bytes | None) -> str:
    """One line standing for ``data``: its text with newlines as ``\\n``, the
    final one dropped; an allowlist entry's text is compared with this."""
    if data is None:
        return "(absent)"
    text = data.decode("utf-8", "backslashreplace")
    return text.removesuffix("\n").replace("\n", "\\n")


def first_difference(base: bytes | None, head: bytes | None) -> tuple[str, str]:
    """The first line where ``base`` and ``head`` differ, from each side."""
    if base is None or head is None:
        return as_text(base)[:200], as_text(head)[:200]
    a, b = base.split(b"\n"), head.split(b"\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = [f"line {i + 1}: " + as_text(s[i])[:200] if i < len(s) else "(ends)" for s in (a, b)]
    return line[0], line[1]


def differences(name: str, base: dict[str, bytes], head: dict[str, bytes]):
    """``(case, where, base bytes, head bytes)`` for every output of a case
    that the two trees did not produce byte for byte; None for a missing side."""
    keys = sorted(set(base) | set(head))
    return [(name, k, base.get(k), head.get(k)) for k in keys if base.get(k) != head.get(k)]


def read_allowlist(text: str) -> set[tuple[str, str, str]]:
    entries = set()
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            case, _, rest = line.partition(": ")
            where, _, expected = rest.partition(": ")
            entries.add((case.strip(), where.strip(), expected))
    return entries


def report(diffs, allowed: set[tuple[str, str, str]]) -> list[str]:
    """The lines to print: each difference that no entry allows, and each
    entry that matched no difference."""
    lines, used = [], set()
    for case, where, base, head in diffs:
        key = (case, where, as_text(head))
        if key in allowed:
            used.add(key)
            continue
        old, new = first_difference(base, head)
        lines += [f"{case}: {where} differs", f"    base {old}", f"    head {new}"]
    lines += [f"{ALLOWLIST.name}: allows a difference that did not occur: {c}: {w}: {t}"
              for c, w, t in sorted(allowed - used)]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.rsplit("\n\n", 1)[-1], file=sys.stderr)
        return 2
    ref, cases = argv[0], load_cases()
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), ref], check=True)
        try:
            diffs = []
            for name, steps in cases.items():
                outputs = []
                for side, tree in (("base", base_tree), ("head", ROOT)):
                    work = Path(tmp) / side / name
                    work.mkdir(parents=True)
                    outputs.append(run_case(tree, steps, work))
                found = differences(name, *outputs)
                print(f"bytediff: {name}: {len(found)} differences", file=sys.stderr)
                diffs += found
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)], check=True)
    lines = report(diffs, read_allowlist(ALLOWLIST.read_text(encoding="utf-8")))
    print("\n".join(lines) or f"bytediff: {len(cases)} cases, every difference allowlisted")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
