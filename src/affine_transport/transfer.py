"""Procrustes-aligned affine transport between transition datasets.

Plain affine transport can only recover maps with a symmetric PSD linear
part, because the Gaussian optimal map always has one. Fitting therefore
runs in two stages: an orthogonal Procrustes alignment absorbs the rotation
between the domains, then affine transport between the rotated source and
the target absorbs the remaining stretch and shift. The composed map is
``x -> A (R x) + b`` with R orthogonal and A symmetric PSD, which covers any
invertible linear relation through its polar factorization.

Both stages read only the pair's first and second moments: n, the two means
and the centred Gram of the side-by-side rows ``[source | target]``, reduced
by ``gaussian_ot._moments`` as ``estimate_moments`` reduces one set. R is the
polar factor of its cross block, and the transport is fitted between the
rotated source moments and the target moments. The moments, the
moments-to-map kernel and the next-state scoring each run on a stack of pairs
or maps, and ``fit`` and ``evaluate_pointwise`` call them with a stack of
one, so the learning curve scores a whole block of repeats in one pass and
still agrees with them bit for bit. ``score`` reads its map from the same
reduction, and every rho's bound is the ridged target block of one joint
reduction of the pair it scores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .data import (
    TransitionDataset,
    _json_int,
    _json_reals,
    _read_json,
    _write_json,
    check_paired,
    dataset_fingerprint,
    rng_stream,
)
from .discrete_ot import empirical_w2
from .errors import (
    BadSpec,
    DegenerateInput,
    DimensionMismatch,
    IndefiniteMatrix,
    MalformedModel,
    NonFinite,
    NotSymmetric,
    TooFewSamples,
)
# at_map and estimate_moments are not called here; they stay bound because
# perfbench/tracing.py wraps transfer.at_map and transfer.estimate_moments
from .gaussian_ot import (
    AffineMap,
    _moments,
    _ot_affine,
    _ridged,
    at_map,
    estimate_moments,
    normal_approx_bound,
)
from .linalg import _checked_eigh, _first, _readonly, _require_finite, sample_pair

__all__ = [
    "FitMeta",
    "TransferModel",
    "TransferReport",
    "procrustes",
    "fit",
    "apply",
    "affinity_score",
    "evaluate",
    "evaluate_pointwise",
    "pointwise_error",
    "LearningCurvePoint",
    "learning_curve",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

_ORTHO_TOL = 1e-8

# repeats of one fit size that one kernel call fits. It is the default
# --repeats, so a default curve makes one call per size, and the curve's
# working set stays one block's whatever --repeats is.
_CURVE_BLOCK = 20

# bytes of rows in one stack the curve gathers or scores: a block's repeats
# are gathered and their maps scored in stacks of at most this size, so a
# holdout larger than this is scored one map at a time, as
# evaluate_pointwise scores its one
_STACK_BYTES = 1 << 17


def procrustes(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Orthogonal matrix R minimizing |R @ source - target| in Frobenius norm.

    Inputs are (d, n) matrices whose columns are paired observations. R is
    the product U V^T from the SVD of target @ source^T; reflections are
    allowed, no determinant correction is applied.
    """
    a = np.asarray(source, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"paired matrices must share a shape, got {a.shape} and {b.shape}"
        )
    if a.ndim != 2:
        raise DimensionMismatch(f"expected (d, n) matrices, got shape {a.shape}")
    return _polar(b @ a.T)


def _polar(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U V^T of m = U diag(s) V^T, for one matrix or
    a stack (..., d, d)."""
    _require_finite(m, "cross-covariance")
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def _fit_moments(n: int, mean_s: np.ndarray, mean_t: np.ndarray, gram: np.ndarray):
    """``(R, A, b)`` of the transfer map for each pair in a stack of moments.

    ``mean_s`` and ``mean_t`` are (..., w), ``gram`` is (..., 2w, 2w) as
    ``_moments(source, target)`` returns them, all of ``n`` rows. R is the polar
    factor of the cross block; the rotated source moments R mu_s and
    R Sigma_s R^T and the target moments are ridged as ``estimate_moments``
    ridges them, and (A, b) is the Gaussian optimal map between them, or
    NonFinite if it overflows: a finite map passes ``_check_maps``.
    """
    w = mean_s.shape[-1]
    r = _polar(gram[..., w:, :w])
    sigma_t = _ridged_blocks(n, gram)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_s = _ridged(r @ (gram[..., :w, :w] / n) @ np.swapaxes(r, -1, -2))
        mu_s = (r @ mean_s[..., None])[..., 0]
        a, b = _ot_affine(mu_s, sigma_s, mean_t, sigma_t)
    _require_finite(a, "transport matrix")
    _require_finite(b, "offset")
    return r, a, b


def _check_maps(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Raise MalformedModel unless R is finite and orthogonal, A passes
    ``_checked_eigh`` (finite, symmetric, PSD) and the offset b is finite, for
    one map (R and A (w, w), b (w,)) or stacks of them; each check reports the
    first failing map of a stack, R's checks before A's before b's."""
    try:
        _require_finite(r, "rotation")
        with np.errstate(over="ignore", invalid="ignore"):
            ortho = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(r.shape[-1])).max(axis=(-2, -1))
        bad = _first(~(ortho <= _ORTHO_TOL), ortho)
        if bad:
            raise MalformedModel(f"rotation is not orthogonal: |R^T R - I| = {bad[0]:.3e}")
        _checked_eigh(a, "transport matrix")
        _require_finite(b, "offset")
    except (NonFinite, NotSymmetric, IndefiniteMatrix) as exc:
        raise MalformedModel(str(exc)) from None


@dataclass(frozen=True)
class FitMeta:
    """Provenance of a fitted model: sample count, seed, dataset fingerprints.

    ``save_model`` writes these fields as the model file's ``meta`` block.
    """

    n_fit: int
    seed: int | None
    source_hash: str
    target_hash: str


@dataclass(frozen=True)
class TransferModel:
    """Fitted transfer map: rotation followed by affine transport.

    ``rotation`` is orthogonal, ``at`` is the transport map applied after
    it, and ``composed`` collapses both into a single affine map. The
    constructor checks that R is finite and orthogonal, that the transport
    matrix passes the symmetric-PSD rule covariances pass and that the offset
    is finite, so a tampered model cannot be constructed.
    """

    rotation: np.ndarray
    at: AffineMap
    state_dim: int
    action_dim: int
    meta: FitMeta

    def __post_init__(self):
        r = _readonly(np.asarray(self.rotation, dtype=np.float64))
        d = self.dim
        if r.shape != (d, d):
            raise MalformedModel(f"rotation has shape {r.shape}, expected ({d}, {d})")
        if self.at.matrix.shape != (d, d):
            raise MalformedModel(
                f"transport matrix has shape {self.at.matrix.shape}, expected ({d}, {d})"
            )
        _check_maps(r, self.at.matrix, self.at.offset)
        object.__setattr__(self, "rotation", r)

    @property
    def dim(self) -> int:
        return 2 * self.state_dim + self.action_dim

    @cached_property
    def composed(self) -> AffineMap:
        """Single affine map equal to applying the rotation then the transport."""
        return AffineMap(self.at.matrix @ self.rotation, self.at.offset)


def fit(source: TransitionDataset, target: TransitionDataset) -> TransferModel:
    """Fit a transfer map from paired source and target transition datasets.

    Rows with the same index must come from the same (state, action) pair.
    The fit reads only the pair's moments (``_moments``): the Procrustes
    rotation R is the polar factor of the cross-covariance of the centred
    rows, and affine transport is fitted from the rotated source moments to
    the target moments. Raises TooFewSamples below 2 rows, DegenerateInput if
    the target rows are all equal and NonFinite if the map overflows.
    """
    _require_pair(source, target, "fit")
    # a stack of one through the moments and the kernel the learning curve stacks
    n, means, gram = _moments(source.rows[None], target.rows[None])
    _require_spread(target.rows)
    r, a, b = (m[0] for m in _fit_moments(n, *means, gram))
    at = AffineMap(a, b)
    meta = FitMeta(
        n_fit=source.n,
        seed=source.seed,
        source_hash=dataset_fingerprint(source),
        target_hash=dataset_fingerprint(target),
    )
    return TransferModel(r, at, source.state_dim, source.action_dim, meta)


def apply(model: TransferModel, triplets: np.ndarray) -> np.ndarray:
    """Map source triplet rows into the target domain."""
    x = np.asarray(triplets, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise DimensionMismatch(
            f"triplets have width {x.shape[-1]}, model expects {model.dim}"
        )
    return model.composed.apply(x)


def affinity_score(transported: np.ndarray, target: np.ndarray) -> float:
    """Affinity between a transported sample set and the target set.

    One minus the exact empirical W2 between the sets, normalized by the
    worst-case budget sqrt(2 tr Sigma(target)); clamped to [0, 1]. Close to
    one means the domains are nearly affinely related. Sigma(target) is the
    ridged target block of one joint reduction of ``[transported | target]``.
    """
    t, y = sample_pair(transported, target, ("transported", "target"))
    _require_spread(y)
    w2 = empirical_w2(t, y)
    n, _, gram = _moments(t, y)
    return _rho_and_bound(w2, _ridged_blocks(n, gram)[1])[0]


def _score_pair(source: TransitionDataset, target: TransitionDataset) -> float:
    """``score``'s rho: the source under the Gaussian optimal map between the
    pair's moments, scored; map and bound read one reduction of the pair."""
    _require_pair(source, target, "score")
    n, (mean_s, mean_t), gram = _moments(source.rows, target.rows)
    sigma_s, sigma_t = _ridged_blocks(n, gram)
    # a map that overflows is rejected by the check on its transported rows
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _ot_affine(mean_s, sigma_s, mean_t, sigma_t)
        transported = AffineMap(a, b).apply(source.rows)
    _require_finite(transported, "transported")
    _require_spread(target.rows)
    return _rho_and_bound(empirical_w2(transported, target.rows), sigma_t)[0]


def _ridged_blocks(n: int, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariances (source, target) on the diagonal of ``_moments(source,
    target)``'s Gram of n rows, for one pair or a stack, ridged by ``_ridged``."""
    w = gram.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore"):
        return _ridged(gram[..., :w, :w] / n), _ridged(gram[..., w:, w:] / n)


def _require_spread(target: np.ndarray) -> None:
    """Raise DegenerateInput if all the (finite) target rows are equal; every
    command that scores or fits checks it before any solve. Exact equality,
    as per-column min == max, which builds no mask of the rows."""
    if not target.size or (target.min(axis=0) == target.max(axis=0)).all():
        raise DegenerateInput("target samples are all identical; the score is undefined")


def _rho_and_bound(w2: float, sigma_t: np.ndarray) -> tuple[float, float]:
    """``(rho, bound)``: 1 - w2 / bound clamped to [0, 1], and the budget
    bound = sqrt(2 tr sigma_t) it is normalized by; sigma_t is a target block
    of ``_ridged_blocks``."""
    bound = normal_approx_bound(sigma_t)
    return min(1.0, max(0.0, 1.0 - w2 / bound)), bound


@dataclass(frozen=True)
class TransferReport:
    """Evaluation of a fitted model on a paired dataset.

    One field per column of the report ``eval`` writes, in column order.
    Errors are mean and population std of per-row next-state prediction
    error; the W2 values are exact empirical distances between full triplet
    sets before and after transport. ``eval_on_fit_data`` records whether
    the evaluation datasets are byte-identical to the ones the model was
    fitted on, so in-sample and held-out numbers are never confused.
    """

    error_before_mean: float
    error_before_std: float
    error_after_mean: float
    error_after_std: float
    w2_before: float
    w2_after: float
    rho_aff: float
    bound_value: float
    n_fit: int
    n_eval: int
    eval_on_fit_data: bool


def _check_eval_inputs(dims, source: TransitionDataset, target: TransitionDataset) -> None:
    """The checks ``evaluate_pointwise`` makes of a paired dataset before a map
    fitted on rows of ``dims``, a ``(state_dim, action_dim)``, is applied to it."""
    if (source.state_dim, source.action_dim) != dims:
        raise DimensionMismatch(
            f"datasets have dims ({source.state_dim}, {source.action_dim}), model expects {dims}"
        )
    _require_pair(source, target, "evaluate")


def _require_pair(source: TransitionDataset, target: TransitionDataset, verb: str) -> None:
    """``check_paired``, and TooFewSamples below the 2 paired rows it takes to ``verb``."""
    check_paired(source, target)
    if source.n < 2:
        raise TooFewSamples(f"need at least 2 paired rows to {verb}, got {source.n}")


def evaluate_pointwise(
    model: TransferModel, source: TransitionDataset, target: TransitionDataset
) -> tuple[tuple[float, float], tuple[float, float], np.ndarray]:
    """Pointwise part of ``evaluate``: paired next-state errors, no transport solve.

    Runs every input check ``evaluate`` runs and costs O(n). Returns
    ``(error_before, error_after, transported)``: the (mean, population std)
    of per-row next-state error of the source and of the transported source
    against the target, and the transported source rows. Raises NonFinite
    if either statistic overflows.
    """
    _check_eval_inputs((model.state_dim, model.action_dim), source, target)
    with np.errstate(over="ignore", invalid="ignore"):
        before = _error_stats(_row_norms(source.next_states - target.next_states), "source")
    composed = model.composed
    # a stack of one map through the scoring the learning curve stacks
    transported, errors = _next_state_errors(
        composed.matrix[None], composed.offset[None], source, target
    )
    return before, _error_stats(errors, "transported"), transported[0]


def _next_state_errors(matrices, offsets, source, target):
    """``(transported, errors)`` of a stack of maps x -> matrix x + offset,
    (k, w, w) matrices and (k, w) offsets: the source rows under each map,
    (k, m, w), as ``AffineMap.apply`` maps them, and the (k, m) per-row
    Euclidean errors of their next-state columns against the target's next
    states. The maps' dims are the rows' ones, as ``_check_eval_inputs`` checks.

    A non-finite prediction or an overflowing error gives a non-finite error,
    not a numpy warning, for ``_error_stats`` to reject. ``evaluate_pointwise``
    and ``learning_curve`` both score maps through it, so they agree bit for bit.
    """
    transported = source.rows @ np.swapaxes(matrices, -1, -2)
    transported += offsets[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return transported, _row_norms(transported[..., -target.state_dim:] - target.next_states)


def pointwise_error(predicted: np.ndarray, actual: np.ndarray):
    """Per-row Euclidean errors between paired predictions and ground truth.

    Returns ``(mean, std, per_sample)`` with the population standard
    deviation (ddof = 0). Raises NonFinite if the mean or the std overflows.
    """
    p, a = sample_pair(predicted, actual, ("predicted", "actual"))
    # an error that overflows is inf (its std NaN), not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        per = _row_norms(p - a)
    return (*_error_stats(per, "predicted"), per)


def _error_stats(errors: np.ndarray, whose: str) -> tuple[float, float]:
    """(mean, population std) of per-row errors; NonFinite unless both are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        stats = float(errors.mean()), float(errors.std())
    if not np.isfinite(stats).all():
        raise NonFinite(f"{whose} next-state errors overflow")
    return stats


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, squared in place: the bits of
    ``np.linalg.norm(diff, axis=-1)`` without its two copies. Overwrites diff."""
    np.multiply(diff, diff, out=diff)
    norms = np.add.reduce(diff, axis=-1)
    return np.sqrt(norms, out=norms)


def evaluate(
    model: TransferModel, source: TransitionDataset, target: TransitionDataset
) -> TransferReport:
    """Evaluate a fitted model on paired source and target datasets.

    Adds the distribution part (two exact W2 solves, the normal-approximation
    bound and rho) to ``evaluate_pointwise``; a target whose rows are all
    equal raises DegenerateInput before either solve.
    """
    error_before, error_after, transported = evaluate_pointwise(model, source, target)
    _require_spread(target.rows)
    w2_before = empirical_w2(source.rows, target.rows)
    w2_after = empirical_w2(transported, target.rows)
    n, _, gram = _moments(transported, target.rows)
    rho, bound = _rho_and_bound(w2_after, _ridged_blocks(n, gram)[1])
    on_fit = (
        dataset_fingerprint(source) == model.meta.source_hash
        and dataset_fingerprint(target) == model.meta.target_hash
    )
    return TransferReport(
        error_before_mean=error_before[0],
        error_before_std=error_before[1],
        error_after_mean=error_after[0],
        error_after_std=error_after[1],
        w2_before=w2_before,
        w2_after=w2_after,
        rho_aff=rho,
        bound_value=bound,
        n_fit=model.meta.n_fit,
        n_eval=source.n,
        eval_on_fit_data=on_fit,
    )


@dataclass(frozen=True)
class LearningCurvePoint:
    """Held-out error statistics for one fit size."""

    n_fit: int
    mean_error: float
    std_error: float
    repeats: int


def learning_curve(
    pool_s: TransitionDataset,
    pool_t: TransitionDataset,
    hold_s: TransitionDataset,
    hold_t: TransitionDataset,
    sizes,
    repeats: int,
    seed: int,
) -> list[LearningCurvePoint]:
    """Held-out pointwise error of fits on seeded subsamples of a paired pool.

    For each size, ``repeats`` fits on rows drawn without replacement from
    the pool are scored on the fixed holdout by their mean next-state error,
    as ``evaluate_pointwise`` scores ``fit`` of the same rows, bit for bit.
    Each block of up to ``_CURVE_BLOCK`` repeats is one stacked pass: the
    drawn rows are gathered and reduced to paired moments, one call of the
    stacked kernel fits them, and the maps are scored on the holdout. Rows
    are gathered and maps scored in stacks of at most ``_STACK_BYTES``
    bytes of rows, so a large holdout is scored one map at a time. Only the
    pointwise part of the evaluation runs, so no transport is solved and the
    holdout is not limited by the exact solver's cap. Raises BadSpec for
    ``repeats`` below 1 or a size above the pool, TooFewSamples for a size
    below 2, and NonFinite if a fitted map or a held-out error overflows.
    """
    if repeats < 1:
        raise BadSpec(f"repeats must be positive, got {repeats}")
    for size in sizes:
        if size < 2:
            raise TooFewSamples(f"need at least 2 paired rows to fit, got fit size {size}")
        if size > pool_s.n:
            raise BadSpec(
                f"fit size {size} exceeds the {pool_s.n} rows available after holdout"
            )
    check_paired(pool_s, pool_t)
    _check_eval_inputs((pool_s.state_dim, pool_s.action_dim), hold_s, hold_t)
    w = pool_s.width
    block = min(repeats, _CURVE_BLOCK)
    per_score = max(1, _STACK_BYTES // hold_s.rows.nbytes)
    # one block's moments, filled in place for every block: allocating them
    # per stack, between each stack's short-lived gathered rows, fragments
    # the heap and raises the peak RSS
    mean_s, mean_t = np.empty((block, w)), np.empty((block, w))
    gram = np.empty((block, 2 * w, 2 * w))
    points = []
    for size in sizes:
        errors = np.empty(repeats)
        per_gather = max(1, _STACK_BYTES // (16 * w * size))
        for start in range(0, repeats, block):
            k = min(block, repeats - start)
            for i in range(0, k, per_gather):
                sub = slice(i, min(i + per_gather, k))
                draws = (rng_stream(seed, "curve", size, start + j) for j in range(i, sub.stop))
                idx = np.stack([d.choice(pool_s.n, size=size, replace=False) for d in draws])
                idx.sort(axis=-1)
                _, (mean_s[sub], mean_t[sub]), gram[sub] = _moments(
                    pool_s.rows[idx], pool_t.rows[idx]
                )
            r, a, b = _fit_moments(size, mean_s[:k], mean_t[:k], gram[:k])
            maps = a @ r
            for i in range(0, k, per_score):
                sub = slice(i, min(i + per_score, k))
                per_row = _next_state_errors(maps[sub], b[sub], hold_s, hold_t)[1]
                with np.errstate(over="ignore"):
                    errors[start + i : start + sub.stop] = per_row.mean(axis=-1)
        points.append(LearningCurvePoint(size, *_error_stats(errors, "held-out"), repeats))
    return points


def save_model(model: TransferModel, path) -> None:
    """Serialize a model to a JSON text file.

    Floats are written in shortest exact decimal form, so loading recovers
    every entry bit for bit.
    """
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "dim": model.dim,
        "state_dim": model.state_dim,
        "action_dim": model.action_dim,
        "R": [float(v) for v in model.rotation.ravel()],
        "A": [float(v) for v in model.at.matrix.ravel()],
        "b": [float(v) for v in model.at.offset],
        "meta": asdict(model.meta),
    }
    _write_json(path, doc)


def _model_field(doc: dict, name: str):
    if name not in doc:
        raise MalformedModel(f"model file is missing field {name!r}")
    return doc[name]


def load_model(path) -> TransferModel:
    """Load a model saved by save_model, validating structure and invariants."""
    doc = _read_json(path, MalformedModel, "model file")
    version = _model_field(doc, "version")
    # True == 1 in Python, so the equality alone would accept a boolean
    if isinstance(version, bool) or version != MODEL_FORMAT_VERSION:
        raise MalformedModel(
            f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    dim, state_dim, action_dim = (
        _json_int(_model_field(doc, name), MalformedModel, "model dimensions must be integers")
        for name in ("dim", "state_dim", "action_dim")
    )
    if state_dim < 1 or action_dim < 1:
        raise MalformedModel(
            f"model dimensions must be positive, got state_dim={state_dim} action_dim={action_dim}"
        )
    arrays = {}
    for name, size in (("R", dim * dim), ("A", dim * dim), ("b", dim)):
        flat = f"field {name!r} must be a flat list of finite numbers"
        arr = _json_reals(_model_field(doc, name), MalformedModel, flat)
        if arr.ndim != 1:
            raise MalformedModel(flat)
        if arr.shape != (size,):
            raise MalformedModel(f"field {name!r} has {arr.shape[0]} entries, expected {size}")
        arrays[name] = arr
    meta_doc = _model_field(doc, "meta")
    if not isinstance(meta_doc, dict):
        raise MalformedModel("field 'meta' must be an object")
    seed = meta_doc.get("seed")
    ints = "model meta n_fit and seed must be integers"
    n_fit = _json_int(_model_field(meta_doc, "n_fit"), MalformedModel, ints)
    seed = None if seed is None else _json_int(seed, MalformedModel, ints)
    source_hash, target_hash = (_model_field(meta_doc, k) for k in ("source_hash", "target_hash"))
    if not (isinstance(source_hash, str) and isinstance(target_hash, str)):
        raise MalformedModel("model meta source_hash and target_hash must be strings")
    meta = FitMeta(n_fit, seed, source_hash, target_hash)
    rotation = arrays["R"].reshape(dim, dim)
    at = AffineMap(arrays["A"].reshape(dim, dim), arrays["b"])
    return TransferModel(rotation, at, state_dim, action_dim, meta)
