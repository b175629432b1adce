"""Smoke tests for the code outside the package: every name the benchmark
tracer patches exists, and tools/bytediff.py runs, compares and reports as
its docstring says."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # perfbench/tracing.py patches these module attributes; a refactor that
    # drops one would otherwise fail only the traced benchmark run
    tracing = _load(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        mod = importlib.import_module(f"affine_transport.{module}")
        assert callable(getattr(mod, name, None)), f"affine_transport.{module}.{name}"


def test_bytediff_cases_are_well_formed_and_cover_every_spec():
    bytediff = _load(ROOT / "tools" / "bytediff.py", "bytediff")
    cases = bytediff.load_cases()
    verbs = {step[0] for steps in cases.values() for step in steps}
    assert verbs == {"affine-transport", "python", "copy", "mkdir"}
    copied = {step[1] for steps in cases.values() for step in steps if step[0] == "copy"}
    specs = {p.relative_to(ROOT).as_posix() for p in ROOT.glob("specs/randomization/*.json")}
    assert specs and specs <= copied
    bytediff.read_allowlist(bytediff.ALLOWLIST.read_text(encoding="utf-8"))


def test_bytediff_case_reruns_byte_identical(tmp_path):
    bytediff = _load(ROOT / "tools" / "bytediff.py", "bytediff")
    steps = [
        ["mkdir", "pair"],
        ["copy", "specs/randomization/strength-2.0.json", "spec.json"],
        ["affine-transport", "synth", "--spec", "spec.json", "--n", "12", "--out", "pair"],
        ["python", "-c", "open('pair/note.txt', 'w').write('x')"],
        ["affine-transport", "fit", "--source", "pair/source.csv", "--target", "missing.csv",
         "--out", "model.json"],
    ]
    runs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        runs.append(bytediff.run_case(ROOT, steps, tmp_path / side))
    assert bytediff.differences("c", *runs) == []
    out = runs[0]
    assert (out["step 3 exit"], out["step 5 exit"]) == (b"0", b"2")
    assert out["step 3 stdout"].startswith(b"synth: kind=linear n=12 ")
    assert not out["step 3 stderr"]
    assert out["step 5 stderr"].startswith(b"error[MissingManifest]: no manifest found for ")
    assert sorted(k for k in out if k.startswith("file ")) == [
        "file pair/note.txt", "file pair/source.csv", "file pair/source.manifest.json",
        "file pair/target.csv", "file pair/target.manifest.json", "file spec.json",
    ]


def test_bytediff_report_names_each_difference_not_allowed():
    bytediff = _load(ROOT / "tools" / "bytediff.py", "bytediff")
    base = {"step 1 stderr": b"old\n", "step 1 exit": b"0", "file a.csv": b"h\n1,2\n"}
    head = {"step 1 stderr": b"new\n", "step 1 exit": b"0", "file a.csv": b"h\n1,3\n",
            "file b.csv": b"x\ny\n"}
    diffs = bytediff.differences("c", base, head)
    assert [d[1] for d in diffs] == ["file a.csv", "file b.csv", "step 1 stderr"]
    allowed = bytediff.read_allowlist(
        "# reason\n"
        "c: step 1 stderr: new\n"
        "c: file b.csv: x\\ny\n"
        "c: step 2 stdout: gone\n"
        "other: step 1 stderr: not run\n"
    )
    assert bytediff.report(diffs, allowed) == [
        "c: file a.csv differs",
        "    base line 2: 1,2",
        "    head line 2: 1,3",
        "bytediff.allow: allows a difference that did not occur: c: step 2 stdout: gone",
        "bytediff.allow: allows a difference that did not occur: other: step 1 stderr: not run",
    ]
    # an entry allows only the text it names
    assert bytediff.report(diffs[2:], {("c", "step 1 stderr", "newer")}) == [
        "c: step 1 stderr differs", "    base line 1: old", "    head line 1: new",
        "bytediff.allow: allows a difference that did not occur: c: step 1 stderr: newer",
    ]


def test_bytediff_copy_of_a_file_on_one_side_only_is_a_named_difference(tmp_path):
    # a spec file new on the head side: the base tree lacks it, and the case
    # must still run and report the copy, not raise FileNotFoundError
    bytediff = _load(ROOT / "tools" / "bytediff.py", "bytediff")
    base_tree, head_tree = tmp_path / "base", tmp_path / "head"
    (head_tree / "specs").mkdir(parents=True)
    (head_tree / "specs" / "new.json").write_text("{}\n")
    base_tree.mkdir()
    steps = [["copy", "specs/new.json", "spec.json"],
             ["python", "-c", "import os; print(os.path.exists('spec.json'))"]]
    runs = []
    for tree, work in ((base_tree, tmp_path / "wb"), (head_tree, tmp_path / "wh")):
        work.mkdir()
        runs.append(bytediff.run_case(tree, steps, work))
    diffs = bytediff.differences("c", *runs)
    assert [d[1] for d in diffs] == ["file spec.json", "step 1 copy", "step 2 stdout"]
    assert bytediff.report(diffs, {("c", "step 1 copy", "(absent)"),
                                   ("c", "file spec.json", "{}"),
                                   ("c", "step 2 stdout", "True")}) == []
    assert bytediff.report(diffs[1:2], set()) == [
        "c: step 1 copy differs", "    base no such file: specs/new.json", "    head (absent)",
    ]
