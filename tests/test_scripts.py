"""Smoke test for the code outside the package: every name the benchmark
tracer patches exists."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve():
    # perfbench/tracing.py patches these module attributes; a refactor that
    # drops one would otherwise fail only the traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        mod = importlib.import_module(f"affine_transport.{module}")
        assert callable(getattr(mod, name, None)), f"affine_transport.{module}.{name}"
