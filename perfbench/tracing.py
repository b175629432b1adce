"""Spans around the calls into each layer, recorded from outside the package.

The tracer replaces the module-level names through which one layer calls the
next (``cli.load_csv``, ``transfer.empirical_w2``,
``discrete_ot.linear_sum_assignment`` ...) with wrappers that record a span,
and puts every original back when the ``installed()`` block ends. Nothing
under ``src/`` is edited, and the untimed wrappers never exist in a timed run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module the call goes through, attribute name, span name). The span name is
# <defining module>.<function>, so one layer keeps one name whichever module
# calls it.
TARGETS = (
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "save_dataset", "data.save_dataset"),
    ("cli", "gen_linear", "data.gen_linear"),
    ("cli", "gen_puck", "data.gen_puck"),
    ("cli", "split", "data.split"),
    ("cli", "subset", "data.subset"),
    ("cli", "fit", "transfer.fit"),
    ("cli", "evaluate", "transfer.evaluate"),
    ("cli", "affinity_score", "transfer.affinity_score"),
    ("cli", "apply", "transfer.apply"),
    ("cli", "at_map", "gaussian_ot.at_map"),
    ("cli", "load_model", "transfer.load_model"),
    ("cli", "save_model", "transfer.save_model"),
    ("transfer", "dataset_fingerprint", "data.dataset_fingerprint"),
    ("transfer", "procrustes", "transfer.procrustes"),
    ("transfer", "at_map", "gaussian_ot.at_map"),
    ("transfer", "estimate_moments", "linalg.estimate_moments"),
    ("transfer", "apply", "transfer.apply"),
    ("transfer", "empirical_w2", "discrete_ot.empirical_w2"),
    ("transfer", "pointwise_error", "discrete_ot.pointwise_error"),
    ("gaussian_ot", "estimate_moments", "linalg.estimate_moments"),
    ("discrete_ot", "cdist", "discrete_ot.cost_matrix"),
    ("discrete_ot", "linear_sum_assignment", "discrete_ot.assignment"),
)

# Bytes a call produces, for the layers where that is the work done: the
# dense float64 cost matrix is n_x * n_y * 8 bytes.
BYTES_OF = {
    "discrete_ot.cost_matrix": lambda x, y, *a, **k: len(x) * len(y) * 8,
}


def _module(name: str):
    return importlib.import_module(f"affine_transport.{name}")


class Tracer:
    """Records spans as [name, start, end, parent index, bytes] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, nbytes: int = 0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, nbytes]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, fn, name: str):
        bytes_of = BYTES_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, bytes_of(*args, **kwargs) if bytes_of else 0):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                mod = _module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, span_name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def originals() -> dict:
    """The objects currently bound at every target, to check restoration."""
    return {(m, a): getattr(_module(m), a) for m, a, _ in TARGETS}


def layer_stats(spans: list[list]) -> dict:
    """Per span name: inclusive seconds, self seconds, calls and bytes.

    Self time is a span's duration minus the durations of its direct
    children; children run inside their parent and one after another, so the
    self times of all spans sum to the durations of the root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, nbytes) in enumerate(spans):
        s = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0})
        s["s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["calls"] += 1
        s["bytes"] += nbytes
    return stats
