"""Property-based fuzz of the CLI over spec, manifest and model documents.

Each document starts valid and gets one field replaced, deleted or added, or
is replaced as a whole. Whatever the document, ``main`` must return a code
from the README's exit-code table without raising, and a non-zero exit must
print exactly one ``error[Type]: ...`` or ``usage error: ...`` line.
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
