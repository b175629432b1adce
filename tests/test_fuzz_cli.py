"""Property-based fuzz of the CLI over spec, manifest and model documents,
synth flags and dataset CSV bodies.

Each document starts valid and gets one field replaced, deleted or added, or
is replaced as a whole. Synth flags take non-finite, huge and boolean-like
text, and CSV bodies get blank lines, padded, underscored, non-finite and
missing cells. Whatever the input, ``main`` must return a code from the
README's exit-code table without raising, and a non-zero exit must print
exactly one ``error[Type]: ...`` or ``usage error: ...`` line.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_transport.cli import main

FUZZ = settings(max_examples=50, deadline=None, derandomize=True)

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 16)
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
JUNK = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
# Values for fields that size an allocation (row counts, dimensions): junk of
# every type, but no number large enough to allocate more than 16 rows.
SMALL_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 16)
    | st.floats(-2.0, 16.9)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2)
    ),
    max_leaves=4,
)

LINEAR_SPEC = {
    "kind": "linear",
    "n": 12,
    "state_dim": 2,
    "action_dim": 1,
    "dynamics": [[0.5, 0.1], [0.0, 0.9]],
    "controls": [[1.0], [0.5]],
    "source": {"label": "s", "noise_std": 0.01, "scales": [1.0, 2.0], "inverted": [0]},
    "target": {"noise_std": 0.0, "scales": [0.5, 1.5], "disabled": [1]},
}
PUCK_SPEC = {
    "kind": "puck",
    "n": 12,
    "source": {"friction": [0.1, 0.2], "curl": 0.1, "noise_std": 0.01, "gravity": 9.81},
    "target": {"friction_x": 0.3, "friction_y": 0.4},
}
SIZE_KEYS = {"n", "state_dim", "action_dim"}


def _paths(doc, prefix=()):
    """Every key path into a JSON document, through objects and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = prefix + (key,)
        yield path
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


@st.composite
def mutated(draw, base):
    """``base`` with one field replaced, deleted or added, or a junk document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete":
        del parent[path[-1]]
    elif action == "add" and isinstance(parent, dict):
        parent[draw(st.text(max_size=6))] = draw(JUNK)
    else:
        parent[path[-1]] = draw(SMALL_JUNK if set(path) & SIZE_KEYS else JUNK)
    return doc


def check_main(argv):
    """Run ``main`` and check the exit code and the error report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in range(6), (code, err.getvalue())
    if code:
        reports = [
            line
            for line in err.getvalue().splitlines()
            if line.startswith(("error[", "usage error: "))
        ]
        assert len(reports) == 1, err.getvalue()
    return code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A 16-row puck pair, a model fitted on it, and scratch space."""
    root = tmp_path_factory.mktemp("fuzz")
    pair = root / "pair"
    pair.mkdir()
    (root / "out").mkdir()
    assert check_main(["synth", "--kind", "puck", "--n", 16, "--out", pair]) == 0
    assert check_main(["fit", "--source", pair / "source.csv", "--target",
                       pair / "target.csv", "--out", root / "model.json"]) == 0
    (root / "src.csv").write_bytes((pair / "source.csv").read_bytes())
    return root


@FUZZ
@given(doc=mutated(LINEAR_SPEC) | mutated(PUCK_SPEC))
def test_synth_spec_documents(work, doc):
    spec = work / "spec.json"
    spec.write_text(json.dumps(doc))
    check_main(["synth", "--spec", spec, "--out", work / "out"])


@FUZZ
@given(data=st.data())
def test_manifest_documents(work, data):
    pair = work / "pair"
    base = json.loads((pair / "source.manifest.json").read_text())
    doc = data.draw(mutated(base))
    (work / "src.manifest.json").write_text(json.dumps(doc))
    check_main(["fit", "--source", work / "src.csv", "--target", pair / "target.csv",
                "--out", work / "fuzz-model.json"])


@FUZZ
@given(data=st.data())
def test_model_documents(work, data):
    pair = work / "pair"
    doc = data.draw(mutated(json.loads((work / "model.json").read_text())))
    model = work / "fuzz-model.json"
    model.write_text(json.dumps(doc))
    check_main(["eval", "--model", model, "--source", pair / "source.csv",
                "--target", pair / "target.csv", "--out", work / "report.json"])


# flag text: non-finite, huge, boolean-like and malformed numbers
FLAG_TOKENS = st.sampled_from(
    ["inf", "-inf", "nan", "1e308", "-1e308", "1e309", "true", "false", "True", "1", "0",
     "-1", "0.5", "2", "", " 1", "1_0", "abc"]
)
FLAG_TEXT = FLAG_TOKENS | st.lists(FLAG_TOKENS, min_size=1, max_size=4).map(",".join)
NOISE_FLAGS = ["--noise", "--source-noise", "--target-noise"]
KIND_FLAGS = {
    "puck": NOISE_FLAGS + ["--source-curl", "--target-curl", "--source-friction",
                           "--target-friction"],
    "linear": NOISE_FLAGS + ["--source-scales", "--target-scales", "--source-invert",
                             "--target-invert", "--source-disable", "--target-disable",
                             "--state-dim", "--action-dim"],
}


@st.composite
def synth_flags(draw):
    """A synth command line for a small pair whose value flags carry fuzzed text."""
    kind = draw(st.sampled_from(sorted(KIND_FLAGS)))
    argv = ["synth", "--kind", kind, "--n", draw(st.sampled_from(["1", "2", "12", "0", "true"]))]
    flags = draw(st.lists(st.sampled_from(KIND_FLAGS[kind]), min_size=1, max_size=4, unique=True))
    for flag in flags:
        # the dimensions size allocations, so they stay small
        text = draw(st.sampled_from(["1", "3", "0", "true", "1e308"]) if flag.endswith("-dim")
                    else FLAG_TEXT)
        # --flag=TEXT, so that text starting with "-" is not read as a flag
        argv.append(f"{flag}={text}")
    return argv


@settings(FUZZ, max_examples=200)
@given(argv=synth_flags())
def test_synth_flags(work, argv):
    check_main(argv + ["--out", work / "out"])


CELL_TOKENS = st.sampled_from(
    ["0.5", "-2", " 1.5", "1.5 ", "\t3", "1_0", "nan", "inf", "-inf", "", "abc", "1e308", "0x1"]
)


@st.composite
def csv_body(draw, lines):
    """The lines of a dataset CSV with a few cells, rows or line breaks changed."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        action = draw(st.sampled_from(["cell", "pad", "short", "long", "blank"]))
        if action == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELL_TOKENS)
        elif action == "pad":
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = draw(st.sampled_from([" ", "  ", "\t"])) + cells[j] + " "
        elif action == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif action == "long":
            cells.append(draw(CELL_TOKENS))
        else:
            lines.insert(i, "")
            continue
        lines[i] = ",".join(cells)
    ending = draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))
    return "\n".join(lines) + ending


@FUZZ
@given(data=st.data())
def test_csv_bodies(work, data):
    pair = work / "pair"
    lines = (pair / "source.csv").read_text().splitlines()
    (work / "body.csv").write_text(data.draw(csv_body(lines)), newline="")
    (work / "body.manifest.json").write_bytes((pair / "source.manifest.json").read_bytes())
    check_main(["fit", "--source", work / "body.csv", "--target", pair / "target.csv",
                "--out", work / "fuzz-model.json"])
