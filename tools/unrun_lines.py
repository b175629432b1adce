"""List the executable lines of ``src/affine_transport`` that tier-1 never runs.

Runs the tier-1 suite in this process through ``pytest.main``, under a
``sys.settrace`` tracer that records the lines run in the package's own frames
and ignores every other frame. Lines run only in a child process or in a
thread the suite starts are not seen. A module's executable lines are the line
numbers its code objects' ``co_lines()`` carry. Each executable line that
never ran is printed as ``file:line``, unless ``unrun_lines.allow`` next to
this script names it; so is each allowlist entry that names no unrun line.
Exits 1 if anything was printed, with pytest's code if the suite failed, and
0 otherwise. Standard library and pytest only:

    python tools/unrun_lines.py [extra pytest arguments]

An allowlist entry is ``path: source`` with the path relative to the
repository and the line's source text stripped, so entries survive edits
elsewhere in the file. ``#`` starts a comment line, which gives the reason.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affine_transport"
ALLOWLIST = Path(__file__).with_name("unrun_lines.allow")


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code and the package lines run, by file, while it ran."""
    import pytest  # imported before tracing starts: it imports no package module

    hits: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}  # co_filename -> whether it is a package file

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(os.path.realpath(name)).parent == PACKAGE
        if not ours[name]:
            return None
        hits.setdefault(name, set())
        return local

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    runs: dict[Path, set[int]] = {}
    for name, lines in hits.items():
        runs.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    return int(code), runs


def read_allowlist() -> set[tuple[str, str]]:
    entries = set()
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            path, _, source = line.partition(":")
            entries.add((path.strip(), source.strip()))
    return entries


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pytest's rootdir and testpaths
    code, runs = run_traced(argv)
    if code != 0:
        print(f"unrun_lines: tier-1 exited {code}; no line report", file=sys.stderr)
        return code
    allowed = read_allowlist()
    used = set()
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - runs.get(path, set())):
            key = (rel, source[line - 1].strip())
            if key in allowed:
                used.add(key)
            else:
                report.append(f"{rel}:{line}: never run: {key[1]}")
    report += [f"{ALLOWLIST.name}: allows a line that ran or is gone: {p}: {s}"
               for p, s in sorted(allowed - used)]
    print("\n".join(report) or "unrun_lines: every executable line ran or is allowlisted")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
