"""Transition datasets: pair specs, synthetic generators, splits, and every on-disk format.

A dataset holds n transition triplets (state, action, next state) as rows of
width 2 d + k. Two generator families are provided: randomized linear
dynamics (per-coordinate scaling, sign inversion, disabled action rows) and a
sliding-puck model with per-axis friction and an optional rotation of the
outcome. Both draw from named counter-based random streams so that paired
domains can share states and actions while keeping noise independent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import os
import pickle
import re
import signal
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadFraction,
    BadSpec,
    DimensionMismatch,
    MalformedCsv,
    MissingManifest,
    PairingMismatch,
)
from .linalg import _readonly, _require_finite

__all__ = [
    "TransitionDataset",
    "check_paired",
    "DomainSpec",
    "pair_specs",
    "rng_stream",
    "gen_linear",
    "gen_puck",
    "load_csv",
    "load_pair",
    "save_dataset",
    "split",
    "subset",
    "dataset_fingerprint",
]

GRAVITY = 9.81

# rows formatted per write by save_dataset
_WRITE_CHUNK = 4096
# bytes per read of load_csv: of text when it counts lines, of parsed rows when
# it parses them; 1 MiB reads raised the peak RSS of a process that went on to
# solve an n=4096 assignment by about 1 MB
_READ_CHUNK = 1 << 16
# where loadtxt's message places a fault, counted from its own first row
_LOADTXT_AT = re.compile(r" at row \d+|; use `usecols`.*")
# rows from which save_dataset formats half its chunks, and load_pair parses
# the target, in a forked child (_forked): the first size at which a sweep of
# 2048 to 200000 rows saw both gain clearly; one chunk gives the child nothing
_FORK_MIN_ROWS = 8192
# the length of a message through _forked's pipe; a negative one is a pickled exception's
_FRAME = struct.Struct("<q")


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """Independent reproducible stream for (seed, tags).

    Streams are Philox counters keyed by the seed plus a hash of each tag, so
    the same (seed, tags) pair always yields the same draws and different
    tags never collide with each other in practice.
    """
    if seed < 0:
        raise BadSpec(f"seed must be non-negative, got {seed}")
    key = tuple(
        int.from_bytes(
            hashlib.blake2s(str(t).encode("utf-8", "surrogatepass"), digest_size=4).digest(),
            "big",
        )
        for t in tags
    )
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class TransitionDataset:
    """Rows of (state, action, next state) triplets from one domain."""

    state_dim: int
    action_dim: int
    rows: np.ndarray
    domain_label: str = "domain"
    seed: int | None = None

    def __post_init__(self):
        if self.state_dim < 1 or self.action_dim < 1:
            raise BadSpec(
                f"dimensions must be positive, got state_dim={self.state_dim} "
                f"action_dim={self.action_dim}"
            )
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DimensionMismatch(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[1] != self.width:
            raise DimensionMismatch(
                f"rows have width {rows.shape[1]}, expected "
                f"2*{self.state_dim}+{self.action_dim}={self.width}"
            )
        _require_finite(rows, "dataset")
        object.__setattr__(self, "rows", _readonly(rows))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def width(self) -> int:
        return 2 * self.state_dim + self.action_dim

    @property
    def states(self) -> np.ndarray:
        return self.rows[:, : self.state_dim]

    @property
    def actions(self) -> np.ndarray:
        return self.rows[:, self.state_dim : self.state_dim + self.action_dim]

    @property
    def next_states(self) -> np.ndarray:
        return self.rows[:, self.state_dim + self.action_dim :]


def check_paired(source: TransitionDataset, target: TransitionDataset) -> None:
    """Raise unless row i of ``source`` can be paired with row i of ``target``.

    DimensionMismatch if the (state_dim, action_dim) differ, PairingMismatch
    if the row counts differ.
    """
    if (source.state_dim, source.action_dim) != (target.state_dim, target.action_dim):
        raise DimensionMismatch(
            f"source dims ({source.state_dim}, {source.action_dim}) differ from "
            f"target dims ({target.state_dim}, {target.action_dim})"
        )
    if source.n != target.n:
        raise PairingMismatch(
            f"paired datasets must have equal row counts, got {source.n} and {target.n}"
        )


@dataclass(frozen=True)
class DomainSpec:
    """Parameters of one synthetic domain.

    ``kind`` selects the generator. Linear domains take base dynamics and
    control matrices plus a randomization descriptor (per-coordinate scale
    factors, inverted rows, disabled action rows; a coordinate listed in both
    index sets is treated as disabled only). Puck domains take per-axis
    friction, an outcome rotation angle, and gravity. The constructor checks
    every field (BadSpec), so a generator checks only its kind and actions.
    """

    kind: str
    label: str = "domain"
    noise_std: float = 0.0
    # linear domains
    dynamics: np.ndarray | None = None
    controls: np.ndarray | None = None
    scales: np.ndarray | None = None
    inverted: tuple[int, ...] = ()
    disabled: tuple[int, ...] = ()
    # puck domains
    friction_x: float = 0.1
    friction_y: float = 0.1
    curl: float = 0.0
    gravity: float = GRAVITY

    def __post_init__(self):
        if self.kind not in ("linear", "puck"):
            raise BadSpec(f"unknown domain kind {self.kind!r}")
        if not isinstance(self.label, str):
            raise BadSpec(f"domain label must be a string, got {self.label!r}")
        if self.label == "":
            raise BadSpec("domain label must not be empty")
        for field in ("noise_std", "friction_x", "friction_y", "curl", "gravity"):
            value = getattr(self, field)
            message = f"{field} must be a finite number, got {value!r}"
            object.__setattr__(self, field, _json_real(value, BadSpec, message))
        if not self.noise_std >= 0.0:
            raise BadSpec(f"noise_std must be >= 0, got {self.noise_std!r}")
        for field in ("dynamics", "controls", "scales"):
            value = getattr(self, field)
            if value is not None:
                value = _json_reals(value, BadSpec, f"{field} must be an array of finite numbers")
                object.__setattr__(self, field, _readonly(value))
        for field in ("inverted", "disabled"):
            value = getattr(self, field)
            message = f"{field} must be a list of indices, got {value!r}"
            try:
                indices = tuple(value)
            except TypeError:
                raise BadSpec(message)
            object.__setattr__(self, field, tuple(_json_int(i, BadSpec, message) for i in indices))
        if self.kind == "puck":
            if not (self.friction_x > 0.0 and self.friction_y > 0.0):
                friction = (self.friction_x, self.friction_y)
                raise BadSpec(f"friction must be strictly positive, got {friction!r}")
            if not self.gravity > 0.0:
                raise BadSpec(f"gravity must be strictly positive, got {self.gravity!r}")
            return
        m, b = self.dynamics, self.controls
        if m is None or b is None:
            raise BadSpec("linear domain spec needs 'dynamics' and 'controls' matrices")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadSpec(f"dynamics must be square, got shape {m.shape}")
        d = m.shape[0]
        if b.ndim != 2 or b.shape[0] != d:
            raise BadSpec(f"controls must have {d} rows, got shape {b.shape}")
        if self.scales is not None:
            if self.scales.shape != (d,):
                raise BadSpec(f"scales must have length {d}, got shape {self.scales.shape}")
            if not np.all(self.scales > 0.0):
                raise BadSpec("scale factors must be strictly positive")
        for name, idx in (("inverted", self.inverted), ("disabled", self.disabled)):
            if any(i < 0 or i >= d for i in idx):
                raise BadSpec(f"{name} indices out of range for dimension {d}: {idx}")


_PAIR_SPEC_KEYS = {
    "kind",
    "n",
    "state_dim",
    "action_dim",
    "dynamics",
    "controls",
    "source",
    "target",
}
_DOMAIN_SPEC_KEYS = {field.name for field in dataclasses.fields(DomainSpec)}
# the top-level and side fields that only the other kind's generator reads
_UNREAD_PAIR_KEYS = {
    "linear": set(),
    "puck": {"state_dim", "action_dim", "dynamics", "controls"},
}
_UNREAD_SIDE_KEYS = {
    "linear": {"friction", "friction_x", "friction_y", "curl", "gravity"},
    "puck": {"dynamics", "controls", "scales", "inverted", "disabled"},
}


def pair_specs(doc: dict, seed: int):
    """``(n, action_dim, source, target)`` from a pair spec document, the
    JSON object a ``synth --spec`` file holds and ``synth``'s flags describe.

    Both sides start from the shared fields (kind; for linear pairs the
    dynamics and controls, drawn from the seed unless given) and the side's
    label, then take the side's own object on top, whose ``friction`` pair
    sets ``friction_x`` and ``friction_y`` and whose other keys must be
    ``DomainSpec`` fields that the kind's generator reads. A field that only
    the other kind reads, at the top level or on a side, is an error, and so
    are equal labels, which would key both sides' noise to one stream.
    Raises BadSpec.
    """
    def spec_int(key: str) -> int:
        value = doc[key]
        return _json_int(value, BadSpec, f"spec field {key!r} must be an integer, got {value!r}")

    unknown = set(doc) - _PAIR_SPEC_KEYS
    if unknown:
        raise BadSpec(f"unknown spec file fields: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in ("linear", "puck"):
        raise BadSpec(f"spec file must set kind to 'linear' or 'puck', got {kind!r}")
    unread = set(doc) & _UNREAD_PAIR_KEYS[kind]
    if unread:
        raise BadSpec(f"a {kind} pair never reads spec file fields {sorted(unread)}")
    if doc.get("n") is None:
        raise BadSpec("sample count is missing: set 'n' in the spec file or pass --n")
    n = spec_int("n")
    if n < 1:
        raise BadSpec(f"sample count must be positive, got {n}")
    base = {"kind": kind}
    d, k = 2, 2
    if kind == "linear":
        for name in ("dynamics", "controls"):
            if name in doc:
                m = _json_reals(doc[name], BadSpec, f"{name} must be an array of finite numbers")
                if m.ndim != 2:
                    raise BadSpec(f"{name} must be a matrix, got shape {m.shape}")
                base[name] = m
        # given matrices fix the dimensions; a stated one must agree with them
        dims = {}
        if "controls" in base:
            dims["state_dim"], dims["action_dim"] = base["controls"].shape
        if "dynamics" in base:
            dims["state_dim"] = base["dynamics"].shape[0]
        for key, default in (("state_dim", 3), ("action_dim", 2)):
            if key in doc:
                stated = spec_int(key)
                if dims.setdefault(key, stated) != stated:
                    raise BadSpec(f"spec states {key} {stated}, its matrices have {dims[key]}")
            dims.setdefault(key, default)
        d, k = dims["state_dim"], dims["action_dim"]
        if d < 1 or k < 1:
            raise BadSpec(f"state_dim and action_dim must be positive, got {d} and {k}")
    # the arrays synth allocates: rows, dynamics, controls
    for shape in ((n, 2 * d + k), (d, d), (d, k)):
        if shape[0] * shape[1] * 8 > np.iinfo(np.intp).max:
            raise BadSpec(f"spec asks for a float64 array of shape {shape}, too large to index")
    if kind == "linear":
        if "dynamics" not in base:
            base["dynamics"] = rng_stream(seed, "dynamics").standard_normal((d, d)) / np.sqrt(d)
        if "controls" not in base:
            base["controls"] = rng_stream(seed, "controls").standard_normal((d, k)) / np.sqrt(k)
    sides = []
    for side in ("source", "target"):
        part = doc.get(side, {})
        if not isinstance(part, dict):
            raise BadSpec(f"spec field {side!r} must be an object, got {part!r}")
        unread = set(part) & _UNREAD_SIDE_KEYS[kind]
        if unread:
            raise BadSpec(f"a {kind} domain never reads {side} fields {sorted(unread)}")
        fields = {**base, "label": side, **part}
        if "friction" in fields:
            friction = fields.pop("friction")
            try:
                fields["friction_x"], fields["friction_y"] = friction
            except (TypeError, ValueError):
                raise BadSpec(f"friction must be a pair of numbers, got {friction!r}")
        unknown = set(fields) - _DOMAIN_SPEC_KEYS
        if unknown:
            raise BadSpec(f"unknown domain spec fields: {sorted(unknown)}")
        sides.append(DomainSpec(**fields))
    source, target = sides
    # each side's noise stream is keyed by its label
    if source.label == target.label:
        raise BadSpec(f"source and target share the label {source.label!r}, "
                      "so they would draw the same noise")
    return n, k, source, target


def gen_linear(spec: DomainSpec, actions: np.ndarray, seed: int) -> TransitionDataset:
    """Sample transitions of a randomized linear system.

    States are standard normal; the next state is ``M' s + B' a`` plus
    optional isotropic noise, where M' applies the per-coordinate scale
    factors and row inversions to the base dynamics and B' zeroes the
    disabled rows of the base controls. Reusing the same seed and action
    matrix across domain specs reuses the same (state, action) pairs, with
    noise drawn from a stream keyed by the domain label.
    """
    if spec.kind != "linear":
        raise BadSpec(f"gen_linear requires kind='linear', got {spec.kind!r}")
    d, k = spec.controls.shape
    a = np.asarray(actions, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != k:
        raise BadSpec(f"actions must be (n, {k}), got shape {a.shape}")
    scales = spec.scales if spec.scales is not None else np.ones(d)
    n = a.shape[0]
    states = rng_stream(seed, "states").standard_normal((n, d))
    # huge spec values may overflow; TransitionDataset rejects the result once
    with np.errstate(all="ignore"):
        mp = scales[:, None] * spec.dynamics
        flip = sorted(set(spec.inverted) - set(spec.disabled))
        if flip:
            mp[flip, :] *= -1.0
        bp = spec.controls.copy()
        if spec.disabled:
            bp[sorted(set(spec.disabled)), :] = 0.0
        nxt = states @ mp.T + a @ bp.T
        if spec.noise_std > 0.0:
            nxt = nxt + spec.noise_std * rng_stream(seed, "noise", spec.label).standard_normal((n, d))
    rows = np.hstack([states, a, nxt])
    rows.setflags(write=False)  # handed over: TransitionDataset keeps it uncopied
    return TransitionDataset(d, k, rows, spec.label, seed)


def gen_puck(spec: DomainSpec, actions: np.ndarray, seed: int) -> TransitionDataset:
    """Sample sliding-puck transitions.

    The puck starts at the origin (the constant start state is kept as the
    leading zero block so rows keep the standard triplet width). The action
    is the launch velocity; each axis slides ``sign(v) v^2 / (2 mu g)`` under
    its own friction coefficient, and the resulting rest position is rotated
    by the curl angle, plus optional isotropic noise.
    """
    if spec.kind != "puck":
        raise BadSpec(f"gen_puck requires kind='puck', got {spec.kind!r}")
    v = np.asarray(actions, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 2:
        raise BadSpec(f"puck actions must be (n, 2) launch velocities, got shape {v.shape}")
    n = v.shape[0]
    mu = np.array([spec.friction_x, spec.friction_y])
    c, s = math.cos(spec.curl), math.sin(spec.curl)
    rot = np.array([[c, -s], [s, c]])
    # huge spec values may overflow; TransitionDataset rejects the result once
    with np.errstate(all="ignore"):
        final = (np.sign(v) * v**2 / (2.0 * mu * spec.gravity)) @ rot.T
        if spec.noise_std > 0.0:
            final = final + spec.noise_std * rng_stream(seed, "noise", spec.label).standard_normal((n, 2))
    rows = np.hstack([np.zeros((n, 2)), v, final])
    rows.setflags(write=False)
    return TransitionDataset(2, 2, rows, spec.label, seed)


def _json_int(value, error_type, message: str) -> int:
    """``int(value)`` for an integer field of a JSON document, except that a
    boolean or a fractional or non-finite float raises ``error_type(message)``
    instead of being truncated, as does anything ``int()`` rejects."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error_type(message)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise error_type(message)


def _json_real(value, error_type, message: str) -> float:
    """``float(value)`` for a number field of a JSON document; anything but a
    finite real number (a boolean, a string, inf, NaN) raises ``error_type(message)``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise error_type(message)
        if math.isfinite(value):
            return value
    raise error_type(message)


def _json_reals(value, error_type, message: str) -> np.ndarray:
    """A (nested) list of numbers as a float64 array of the same shape, every
    element read by ``_json_real``."""
    cells = np.asarray(value, dtype=object)  # a ragged list becomes an array of lists
    reals = [_json_real(cell, error_type, message) for cell in cells.flat]
    return np.array(reals, dtype=np.float64).reshape(cells.shape)


def _read_json(path, error_type, what: str) -> dict:
    """The JSON object in a UTF-8 file; ``error_type`` unless it is valid JSON
    holding an object. ``what`` names the document in the message."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    # ValueError also covers an integer past Python's digit limit, and
    # RecursionError a document nested too deep to decode
    except (ValueError, RecursionError) as exc:
        raise error_type(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise error_type(f"{what} {path} must hold a JSON object")
    return doc


def _write_json(path, doc) -> None:
    """Write a JSON document: indent 2, sorted keys, floats as ``repr``, UTF-8, trailing LF."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of cells, joined by commas:
    floats as ``repr``, booleans as ``true``/``false``, UTF-8, LF endings."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def manifest_path_for(csv_path) -> Path:
    """Manifest file that accompanies a dataset CSV: same stem, .manifest.json."""
    return Path(csv_path).with_suffix(".manifest.json")


def save_dataset(ds: TransitionDataset, csv_path, paired=None) -> Path:
    """Write a dataset CSV plus its manifest; returns the manifest path.

    ``paired`` is an optional ``(dataset, csv_path)`` pair for ``ds``, written
    in the same pass with its own manifest. Where the two sides hold bitwise
    equal states and actions, those cells are formatted once for both files.
    From ``_FORK_MIN_ROWS`` rows, where ``os.fork`` exists, a forked child
    formats every other chunk of rows while this process formats the rest and
    writes them all in order; the bytes, errors and exit codes are those of
    one process. Rewriting the same dataset is byte identical, alone or paired.
    """
    sides = [(ds, csv_path)]
    if paired is not None:
        check_paired(ds, paired[0])
        sides.append(paired)
    datasets = [side for side, _ in sides]
    header = ",".join(_header(ds.state_dim, ds.action_dim)) + "\n"
    starts = range(0, ds.n, _WRITE_CHUNK)

    def format_odd_chunks():
        for start in starts[1::2]:
            for text in _chunk_texts(datasets, start):
                yield text.encode()

    with contextlib.ExitStack() as stack:
        receive = None
        # forked before the files are opened, so the child holds none of them
        if ds.n >= _FORK_MIN_ROWS and hasattr(os, "fork"):
            receive = stack.enter_context(_forked(format_odd_chunks, f"format {csv_path}"))
        files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                 for _, path in sides]
        for f in files:
            f.write(header)
        for i, start in enumerate(starts):
            if receive and i % 2:
                texts = (receive().decode() for _ in files)
            else:
                texts = _chunk_texts(datasets, start)
            # one side's text at a time: each is written before the next is made
            for f in files:
                f.write(next(texts))
    for side, path in sides:
        _write_json(manifest_path_for(path), {
            "state_dim": side.state_dim,
            "action_dim": side.action_dim,
            "domain_label": side.domain_label,
            "seed": side.seed,
        })
    return manifest_path_for(csv_path)


def _chunk_texts(datasets, start: int):
    """The CSV lines of rows ``start`` to ``start + _WRITE_CHUNK``, one text
    per dataset, in turn. The datasets are paired; where the second holds
    bitwise equal states and actions, its cells are the first's text."""
    blocks = [ds.rows[start : start + _WRITE_CHUNK] for ds in datasets]
    shared = datasets[0].state_dim + datasets[0].action_dim
    heads = [_float_lines(blocks[0][:, :shared])]
    if len(blocks) > 1:
        # bitwise, not ==: -0.0 == 0.0, but their reprs differ
        same = np.array_equal(*(block[:, :shared].view(np.uint64) for block in blocks))
        heads.append(heads[0] if same else _float_lines(blocks[1][:, :shared]))
    for block, head in zip(blocks, heads):
        yield "".join([f"{h},{t}\n" for h, t in zip(head, _float_lines(block[:, shared:]))])


@contextlib.contextmanager
def _forked(work, what: str):
    """Run ``work()`` in a forked child while the ``with`` block runs here.

    ``work`` yields bytes-like messages, which go through a pipe. The block
    gets ``receive``: ``receive()`` returns the child's next message,
    ``receive(array)`` reads it into that array, whose size it must have.
    Where ``work`` raised, ``receive`` raises its exception instead; where
    the child ended before its next message, ChildProcessError naming
    ``what`` it was forked to do. The child leaves only through ``os._exit``,
    so it runs no exit handler and flushes no buffer it inherited. It is
    reaped on every path; a block that raises closes the pipe and kills the
    child first, so a child blocked on a full pipe cannot hang it.
    """
    read_end, write_end = os.pipe()
    try:
        # the work save_dataset and load_pair hand a child calls no BLAS
        # routine, so a fork after numpy's BLAS threads have started is safe:
        # the child never touches their locks. Keep it so
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    for message in work():
                        pipe.write(_FRAME.pack(memoryview(message).nbytes))
                        pipe.write(message)
                except Exception as exc:
                    message = pickle.dumps(exc)
                    pipe.write(_FRAME.pack(-len(message)) + message)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    reaped = False

    def receive(into=None):
        nonlocal reaped
        head = pipe.read(_FRAME.size)
        if len(head) == _FRAME.size:
            (size,) = _FRAME.unpack(head)
            if size < 0:
                raise pickle.loads(pipe.read(-size))  # written by this program's child
            if into is None:
                data = pipe.read(size)
                if len(data) == size:
                    return data
            elif pipe.readinto(memoryview(into).cast("B")) == size:
                return None
        _, status = os.waitpid(pid, 0)
        reaped = True
        raise ChildProcessError(f"the process forked to {what} ended with no reply "
                                f"(exit code {os.waitstatus_to_exitcode(status)})")

    try:
        with open(read_end, "rb") as pipe:
            yield receive
    except BaseException:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if not reaped:
            os.waitpid(pid, 0)


def _float_lines(block: np.ndarray) -> list[str]:
    """Each row of a float block as its cells' ``repr``s joined by commas."""
    return [",".join(map(repr, row)) for row in block.tolist()]


def _header(d: int, k: int) -> list[str]:
    return (
        [f"s{i}" for i in range(d)]
        + [f"a{i}" for i in range(k)]
        + [f"ns{i}" for i in range(d)]
    )


def load_csv(csv_path) -> TransitionDataset:
    """Load a dataset CSV and its manifest, ``<stem>.manifest.json`` next to it.

    The manifest must exist. Cells are read as ``np.loadtxt`` reads them.
    Faults are reported with their 1-based data row index; NaN and infinite
    cells and blank lines are rejected. No file is held in memory as text.
    """
    csv_path = Path(csv_path)
    mp = manifest_path_for(csv_path)
    if not mp.exists():
        raise MissingManifest(f"no manifest found for {csv_path}: expected {mp}")
    manifest = _read_json(mp, MalformedCsv, "manifest")
    dims = f"manifest {mp} must carry integer state_dim and action_dim"
    d = _json_int(manifest.get("state_dim"), MalformedCsv, dims)
    k = _json_int(manifest.get("action_dim"), MalformedCsv, dims)
    if d < 1 or k < 1:
        raise MalformedCsv(f"manifest {mp} needs state_dim and action_dim >= 1, got {d} and {k}")
    label = str(manifest.get("domain_label", "domain"))
    seed = manifest.get("seed")
    if seed is not None:
        seed = _json_int(seed, MalformedCsv, f"manifest {mp} seed must be an integer, got {seed!r}")

    rows = _read_rows(csv_path, d, k)
    rows.setflags(write=False)
    return TransitionDataset(d, k, rows, label, seed)


def load_pair(source_path, target_path) -> tuple[TransitionDataset, TransitionDataset]:
    """``(load_csv(source_path), load_csv(target_path))``: the same datasets
    and the same errors, the source's first where both files are bad.

    A target of ``_FORK_MIN_ROWS`` lines or more is parsed by ``load_csv`` in
    a forked child while this process parses the source, and its rows are
    read from the child into their final array. Below that, or where
    ``os.fork`` is missing, both files are parsed here in turn.
    """
    if not hasattr(os, "fork") or _fewer_lines(target_path, _FORK_MIN_ROWS):
        return load_csv(source_path), load_csv(target_path)

    def parse_target():
        target = load_csv(target_path)
        yield pickle.dumps((target.state_dim, target.action_dim, target.domain_label,
                            target.seed, target.n))
        yield target.rows

    with _forked(parse_target, f"read {target_path}") as receive:
        source = load_csv(source_path)
        d, k, label, seed, n = pickle.loads(receive())
        rows = np.empty((n, 2 * d + k))
        receive(rows)
    rows.setflags(write=False)
    return source, TransitionDataset(d, k, rows, label, seed)


def _fewer_lines(path, count: int) -> bool:
    """Whether the file at ``path`` holds fewer than ``count`` lines, read no
    further than that; False where it cannot be read."""
    lines = 0
    try:
        with open(path, "rb") as f:
            while lines < count and (block := f.read(_READ_CHUNK)):
                lines += block.count(b"\n")
    except OSError:
        return False
    return lines < count


def _read_rows(csv_path: Path, d: int, k: int) -> np.ndarray:
    """The data rows of a dataset CSV, read by ``np.loadtxt`` a chunk of lines
    at a time from one open handle into one preallocated array.

    The header must be exactly the expected one. Any other fault (a cell
    loadtxt cannot read, a row of the wrong width, a blank line, a NaN or
    infinite cell, a byte that is not UTF-8) raises one MalformedCsv naming
    the file and the fault's 1-based data row.
    """
    width = 2 * d + k
    with open(csv_path, "rb") as f:
        header = f.readline()
        if not header:
            raise MalformedCsv(f"{csv_path} is empty")
        # count first: the header the manifest implies can be far larger than the file
        columns = header.count(b",") + 1
        if columns != width:
            raise MalformedCsv(
                f"{csv_path} header has {columns} columns, the manifest's "
                f"state_dim={d} action_dim={k} needs {width}"
            )
        names = _header(d, k)
        header = header.removesuffix(b"\n").decode("utf-8", "replace")
        if header != ",".join(names):
            raise MalformedCsv(
                f"{csv_path} header {header!r} does not match expected {','.join(names)!r}"
            )
        body = f.tell()
        lines, last = 0, b"\n"
        while block := f.read(_READ_CHUNK):
            lines += block.count(b"\n")
            last = block[-1:]
        lines += last != b"\n"  # a last line without LF
        rows = np.empty((lines, width))
        f.seek(body)
        # lines per loadtxt call: each chunk is held beside the preallocated
        # rows until copied, so it is kept to _READ_CHUNK bytes
        step = max(1, _READ_CHUNK // rows.itemsize // width)
        # a first row of the right width: loadtxt then raises at any row of
        # another width, and always finds data
        template = [",".join(["0"] * width)]
        for start in range(0, lines, step):
            at, size = f.tell(), min(step, lines - start)
            try:
                chunk = np.loadtxt(itertools.chain(template, itertools.islice(f, size)),
                                   delimiter=",", comments=None, ndmin=2, encoding="utf-8")[1:]
            except ValueError as exc:  # UnicodeDecodeError included
                # loadtxt takes a line at a time, so the last line it took is the faulty one
                end = f.tell()
                f.seek(at)
                row = start + 1 + f.read(end - at - 1).count(b"\n")
                raise MalformedCsv(f"{csv_path} data row {row}: {_LOADTXT_AT.sub('', str(exc))}")
            if len(chunk) < size:  # loadtxt skips blank lines
                f.seek(at)
                row = next(i for i, line in enumerate(f, start + 1) if not line.rstrip(b"\r\n"))
                raise MalformedCsv(f"{csv_path} data row {row} has 1 columns, expected {width}")
            finite = np.isfinite(chunk)
            if not finite.all():
                i, j = np.argwhere(~finite)[0]
                raise MalformedCsv(
                    f"{csv_path} data row {start + i + 1}, column {names[j]}: "
                    f"non-finite value {float(chunk[i, j])!r}"
                )
            rows[start : start + size] = chunk
    return rows


def subset(ds: TransitionDataset, indices) -> TransitionDataset:
    """Dataset restricted to the given row indices, in the given order."""
    rows = ds.rows[np.asarray(indices, dtype=np.intp)]
    rows.setflags(write=False)
    return dataclasses.replace(ds, rows=rows)


def split(ds: TransitionDataset, fractions, seed: int):
    """Disjoint (train, test) row partition by a seeded shuffle.

    The permutation depends only on the seed and row count, so applying the
    same split to a paired dataset keeps rows aligned.
    """
    try:
        f = tuple(float(v) for v in fractions)
    except (TypeError, ValueError):
        raise BadFraction(f"fractions must be two numbers, got {fractions!r}")
    if len(f) != 2 or any(v < 0.0 for v in f) or abs(sum(f) - 1.0) > 1e-9:
        raise BadFraction(f"fractions must be non-negative and sum to 1, got {f}")
    perm = rng_stream(seed, "split").permutation(ds.n)
    n_train = int(round(f[0] * ds.n))
    return subset(ds, perm[:n_train]), subset(ds, perm[n_train:])


def dataset_fingerprint(ds: TransitionDataset) -> str:
    """Content hash of the dataset rows and dimensions."""
    h = hashlib.sha256()
    h.update(f"{ds.state_dim},{ds.action_dim},{ds.n};".encode("ascii"))
    h.update(ds.rows)  # read-only and C-contiguous: hashed in place, not copied
    return h.hexdigest()
