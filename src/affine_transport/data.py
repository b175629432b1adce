"""Transition datasets: synthetic generators, splits, and every on-disk format.

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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadFraction,
    BadSpec,
    DimensionMismatch,
    MalformedCsv,
    MissingManifest,
    NonFinite,
    PairingMismatch,
)
from .linalg import _readonly

__all__ = [
    "TransitionDataset",
    "check_paired",
    "DomainSpec",
    "rng_stream",
    "gen_linear",
    "gen_puck",
    "load_csv",
    "save_dataset",
    "split",
    "subset",
    "dataset_fingerprint",
    "manifest_path_for",
]

GRAVITY = 9.81

# rows formatted per write by _write_csv
_WRITE_CHUNK = 4096
# bytes per read when _loadtxt_rows counts lines; 1 MiB reads raised the peak
# RSS of a process that went on to solve an n=4096 assignment by about 1 MB
_READ_CHUNK = 1 << 16
# loadtxt ends a line at "\r", which the LF count of _loadtxt_rows misses, and
# strips \x1c-\x1f around a cell where float() rejects them
_LOADTXT_UNSAFE = (b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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
        if not np.all(np.isfinite(rows)):
            raise NonFinite("dataset rows contain NaN or infinite entries")
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
    friction, an outcome rotation angle, and gravity.
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

    @classmethod
    def from_dict(cls, doc: dict) -> "DomainSpec":
        """Build a spec from a plain dict, e.g. one section of a spec file."""
        if not isinstance(doc, dict):
            raise BadSpec(f"domain spec must be a mapping, got {type(doc).__name__}")
        doc = dict(doc)
        if "friction" in doc:
            fr = doc.pop("friction")
            try:
                doc["friction_x"], doc["friction_y"] = fr
            except (TypeError, ValueError):
                raise BadSpec(f"friction must be a pair of numbers, got {fr!r}")
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - allowed
        if unknown:
            raise BadSpec(f"unknown domain spec fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise BadSpec("domain spec is missing 'kind'")
        return cls(**doc)


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
    if spec.dynamics is None or spec.controls is None:
        raise BadSpec("linear domain spec needs 'dynamics' and 'controls' matrices")
    m = spec.dynamics
    b = spec.controls
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadSpec(f"dynamics must be square, got shape {m.shape}")
    d = m.shape[0]
    if b.ndim != 2 or b.shape[0] != d:
        raise BadSpec(f"controls must have {d} rows, got shape {b.shape}")
    k = b.shape[1]
    a = np.asarray(actions, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != k:
        raise BadSpec(f"actions must be (n, {k}), got shape {a.shape}")
    scales = spec.scales if spec.scales is not None else np.ones(d)
    if scales.shape != (d,):
        raise BadSpec(f"scales must have length {d}, got shape {scales.shape}")
    if not np.all(scales > 0.0):
        raise BadSpec("scale factors must be strictly positive")
    for name, idx in (("inverted", spec.inverted), ("disabled", spec.disabled)):
        if any(i < 0 or i >= d for i in idx):
            raise BadSpec(f"{name} indices out of range for dimension {d}: {idx}")
    n = a.shape[0]
    states = rng_stream(seed, "states").standard_normal((n, d))
    # huge spec values may overflow; TransitionDataset rejects the result once
    with np.errstate(all="ignore"):
        mp = scales[:, None] * m
        flip = sorted(set(spec.inverted) - set(spec.disabled))
        if flip:
            mp[flip, :] *= -1.0
        bp = b.copy()
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
    if not (spec.friction_x > 0.0 and spec.friction_y > 0.0):
        raise BadSpec(
            f"friction must be strictly positive, got ({spec.friction_x!r}, {spec.friction_y!r})"
        )
    if not spec.gravity > 0.0:
        raise BadSpec(f"gravity must be strictly positive, got {spec.gravity!r}")
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
    floats as ``repr``, booleans as ``true``/``false``, UTF-8, LF endings.

    Rows are formatted and written ``_WRITE_CHUNK`` at a time, so the text
    held in memory does not grow with the file.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, _WRITE_CHUNK)):
            f.write("".join([",".join(map(_cell, row)) + "\n" for row in chunk]))


def manifest_path_for(csv_path) -> Path:
    """Manifest file that accompanies a dataset CSV: same stem, .manifest.json."""
    return Path(csv_path).with_suffix(".manifest.json")


def save_dataset(ds: TransitionDataset, csv_path, paired=None) -> Path:
    """Write a dataset CSV plus its manifest; returns the manifest path.

    ``paired`` is an optional ``(dataset, csv_path)`` pair for ``ds``, written
    in the same pass with its own manifest. Where the two sides hold bitwise
    equal states and actions, those cells are formatted once for both files.
    Rewriting the same dataset is byte identical, alone or paired.
    """
    sides = [(ds, csv_path)]
    if paired is not None:
        check_paired(ds, paired[0])
        sides.append(paired)
    header = ",".join(_header(ds.state_dim, ds.action_dim)) + "\n"
    shared = ds.state_dim + ds.action_dim
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                 for _, path in sides]
        for f in files:
            f.write(header)
        for start in range(0, ds.n, _WRITE_CHUNK):
            blocks = [side.rows[start : start + _WRITE_CHUNK] for side, _ in sides]
            heads = [_float_lines(blocks[0][:, :shared])]
            if paired is not None:
                # bitwise, not ==: -0.0 == 0.0, but their reprs differ
                same = np.array_equal(*(block[:, :shared].view(np.uint64) for block in blocks))
                heads.append(heads[0] if same else _float_lines(blocks[1][:, :shared]))
            for f, block, head in zip(files, blocks, heads):
                tails = _float_lines(block[:, shared:])
                f.write("".join([f"{h},{t}\n" for h, t in zip(head, tails)]))
    for side, path in sides:
        _write_json(manifest_path_for(path), {
            "state_dim": side.state_dim,
            "action_dim": side.action_dim,
            "domain_label": side.domain_label,
            "seed": side.seed,
        })
    return manifest_path_for(csv_path)


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

    The manifest must exist. Cells are read as ``float()`` reads them. Cell
    errors are reported with their 1-based data row index; NaN and infinite
    cells and blank lines are rejected. A well-formed file is parsed without
    holding its text in memory.
    """
    csv_path = Path(csv_path)
    mp = manifest_path_for(csv_path)
    if not mp.exists():
        raise MissingManifest(f"no manifest found for {csv_path}: expected {mp}")
    manifest = _read_json(mp, MalformedCsv, "manifest")
    dims = f"manifest {mp} must carry integer state_dim and action_dim"
    d = _json_int(manifest.get("state_dim"), MalformedCsv, dims)
    k = _json_int(manifest.get("action_dim"), MalformedCsv, dims)
    label = str(manifest.get("domain_label", "domain"))
    seed = manifest.get("seed")
    if seed is not None:
        seed = _json_int(seed, MalformedCsv, f"manifest {mp} seed must be an integer, got {seed!r}")

    rows = _loadtxt_rows(csv_path, d, k)
    if rows is None:
        rows = _per_cell_rows(csv_path, d, k)
    rows.setflags(write=False)
    return TransitionDataset(d, k, rows, label, seed)


def _loadtxt_rows(csv_path: Path, d: int, k: int) -> np.ndarray | None:
    """The data rows of a dataset CSV read by ``np.loadtxt``, or None where
    they could differ from what ``_per_cell_rows`` returns or raises.

    loadtxt holds no line or cell as a Python object, but it skips blank
    lines, rejects some cells ``float()`` reads (``1_0``, non-ASCII digits)
    and reads some that ``float()`` rejects. So its rows are kept only when
    the header is exactly the expected one, the file ends with LF and holds
    no byte of ``_LOADTXT_UNSAFE``, and loadtxt neither raised nor warned
    and gave one finite row per line. Every other file, a faulty one
    included, is left to ``_per_cell_rows``, which raises its error.
    """
    width = 2 * d + k
    with open(csv_path, "rb") as f:
        header = f.readline()
        # count first: the header the manifest implies can be far larger than the file
        if header.count(b",") + 1 != width or header != ",".join(_header(d, k)).encode() + b"\n":
            return None
        lines, last = 0, b"\n"
        while chunk := f.read(_READ_CHUNK):
            if any(byte in chunk for byte in _LOADTXT_UNSAFE):
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    if last != b"\n":
        return None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            # max_rows: told the count, loadtxt allocates the rows once instead of growing them
            rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, max_rows=lines, comments=None,
                              ndmin=2, encoding="utf-8")
        except ValueError:  # UnicodeDecodeError included
            return None
    if caught or rows.shape != (lines, width) or not np.isfinite(rows).all():
        return None
    return rows


def _per_cell_rows(csv_path: Path, d: int, k: int) -> np.ndarray:
    """The data rows of a dataset CSV, every cell read by ``float()``.

    Checks the header, then every row and cell in file order; the first
    fault raises MalformedCsv, naming its 1-based data row if it has one.
    """
    text = csv_path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedCsv(f"{csv_path} is empty")
    # the column count is checked first: the header the manifest implies can
    # be far larger than the file
    width = 2 * d + k
    got = lines[0].split(",")
    if len(got) != width:
        raise MalformedCsv(
            f"{csv_path} header has {len(got)} columns, the manifest's "
            f"state_dim={d} action_dim={k} needs {width}"
        )
    expected = _header(d, k)
    if got != expected:
        raise MalformedCsv(
            f"{csv_path} header {lines[0]!r} does not match expected {','.join(expected)!r}"
        )
    rows = np.empty((len(lines) - 1, width))
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedCsv(
                f"{csv_path} data row {i} has {len(cells)} columns, expected {width}"
            )
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise MalformedCsv(
                    f"{csv_path} data row {i}, column {expected[j]}: "
                    f"cannot parse {cell!r} as a number"
                )
            if not math.isfinite(value):
                raise MalformedCsv(
                    f"{csv_path} data row {i}, column {expected[j]}: "
                    f"non-finite value {cell!r}"
                )
            rows[i - 1, j] = value
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
