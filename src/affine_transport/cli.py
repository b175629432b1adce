"""Command line front end.

Subcommands: synth (write a paired synthetic dataset), fit (fit a transfer
model from paired CSVs), eval (evaluate a model on paired CSVs),
learning-curve (error versus fit size), score (affinity between two
domains). Exit codes: 0 success, 1 usage, 2 I/O, 3 pairing, 4 dimension,
5 configuration. Log verbosity comes from the AT_LOG_LEVEL environment
variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    DomainSpec,
    TransitionDataset,
    _json_int,
    _json_reals,
    _read_json,
    _write_csv,
    _write_json,
    check_paired,
    gen_linear,
    gen_puck,
    load_csv,
    rng_stream,
    save_dataset,
    split,
    subset,  # not called here; kept bound for perfbench/tracing.py, which wraps cli.subset
)
from .errors import (
    AffineTransportError,
    BadSpec,
    DimensionMismatch,
    MalformedCsv,
    MalformedModel,
    MissingManifest,
    PairingMismatch,
    TooFewSamples,
)
from .gaussian_ot import at_map
from .discrete_ot import MAX_EXACT, pointwise_error
from .transfer import (
    _check_eval_inputs,
    _check_maps,
    _fit_moments,
    _paired_moments,
    affinity_score,
    apply,
    evaluate,
    fit,
    load_model,
    save_model,
)

__all__ = ["LearningCurvePoint", "learning_curve", "main", "build_parser"]

log = logging.getLogger("affine_transport.cli")

# repeats of one fit size that one kernel call fits. It is the default
# --repeats, so a default curve makes one call per size, and the curve's
# working set stays one block's whatever --repeats is.
_CURVE_BLOCK = 20

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PAIRING = 3
EXIT_DIMENSION = 4
EXIT_CONFIG = 5

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class LearningCurvePoint:
    """Held-out error statistics for one fit size."""

    n_fit: int
    mean_error: float
    std_error: float
    repeats: int


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_nonneg_int, default=0, help="random seed (default 0)")
    common.add_argument("--out", default=None, help="output path (directory for synth)")
    # only the commands that write a report take --format
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="json",
        help="report format (default json)",
    )

    parser = _Parser(
        prog="affine-transport",
        description="Affine transport transfer maps between transition datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the pair flags leave no attribute unless given, so synth can tell a
    # flag given at its default from one not given; _doc_from_flags applies
    # the defaults that the help texts state
    synth = sub.add_parser(
        "synth",
        parents=[common],
        argument_default=argparse.SUPPRESS,
        help="generate a paired source/target dataset",
    )
    synth.add_argument(
        "--spec", default=None, help="JSON pair spec file; combines only with --n, --seed, --out"
    )
    synth.add_argument("--n", type=_positive_int, default=None, help="rows per domain")
    synth.add_argument("--kind", choices=("linear", "puck"))
    synth.add_argument("--source-label", help="source domain label (default source)")
    synth.add_argument("--target-label", help="target domain label (default target)")
    synth.add_argument("--noise", type=float, help="noise std for both domains (default 0)")
    synth.add_argument("--source-noise", type=float, help="source noise std (default --noise)")
    synth.add_argument("--target-noise", type=float, help="target noise std (default --noise)")
    synth.add_argument("--source-friction", help="puck: MU_X,MU_Y (default 0.1,0.1)")
    synth.add_argument("--target-friction", help="puck: MU_X,MU_Y (default 0.1,0.4)")
    synth.add_argument("--source-curl", type=float, help="puck (default 0)")
    synth.add_argument("--target-curl", type=float, help="puck (default 0)")
    synth.add_argument("--state-dim", type=_positive_int, help="linear only (default 3)")
    synth.add_argument("--action-dim", type=_positive_int, help="linear only (default 2)")
    synth.add_argument("--source-scales", help="linear: comma separated floats")
    synth.add_argument("--target-scales")
    synth.add_argument("--source-invert", help="linear: comma separated indices")
    synth.add_argument("--target-invert")
    synth.add_argument("--source-disable")
    synth.add_argument("--target-disable")
    synth.set_defaults(func=cmd_synth)

    fit_p = sub.add_parser("fit", parents=[common], help="fit a transfer model")
    fit_p.add_argument("--source", required=True, help="source CSV")
    fit_p.add_argument("--target", required=True, help="target CSV")
    fit_p.set_defaults(func=cmd_fit)

    eval_p = sub.add_parser("eval", parents=[common, report], help="evaluate a fitted model")
    eval_p.add_argument("--model", required=True, help="model file from fit")
    eval_p.add_argument("--source", required=True)
    eval_p.add_argument("--target", required=True)
    eval_p.set_defaults(func=cmd_eval)

    curve = sub.add_parser(
        "learning-curve", parents=[common, report], help="held-out error versus fit size"
    )
    curve.add_argument("--source", required=True)
    curve.add_argument("--target", required=True)
    curve.add_argument("--sizes", default="8,32,128,512", help="comma separated fit sizes")
    curve.add_argument("--repeats", type=_positive_int, default=20)
    curve.add_argument(
        "--holdout-fraction",
        type=float,
        default=0.25,
        help="fraction of rows held out for evaluation (default 0.25)",
    )
    curve.set_defaults(func=cmd_learning_curve)

    score = sub.add_parser(
        "score", parents=[common, report], help="affinity score between two domains"
    )
    score.add_argument("--source", required=True)
    score.add_argument("--target", required=True)
    score.set_defaults(func=cmd_score)

    return parser


def _configure_logging() -> None:
    name = os.environ.get("AT_LOG_LEVEL", "warn").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("affine_transport").setLevel(level)


def _require_out(args) -> str:
    if not args.out:
        raise UsageError("--out is required for this command")
    return args.out


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma separated numbers, got {text!r}")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma separated integers, got {text!r}")


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


# the synth arguments that combine with --spec; every other one is a pair flag
_SPEC_ARGS = {"command", "func", "spec", "n", "seed", "out"}


def _doc_from_flags(args) -> dict:
    """The pair spec document that synth's flags describe, as a --spec file holds it."""
    flags = vars(args)
    kind = flags.get("kind")
    if kind is None:
        raise UsageError("synth needs --kind (or a --spec file)")
    if args.n is None:
        raise UsageError("synth needs --n (or a --spec file with 'n')")
    doc = {"kind": kind, "n": args.n}
    if kind == "linear":
        doc["state_dim"], doc["action_dim"] = flags.get("state_dim", 3), flags.get("action_dim", 2)
    for side, default_friction in (("source", "0.1,0.1"), ("target", "0.1,0.4")):
        part = {
            "label": flags.get(f"{side}_label", side),
            "noise_std": flags.get(f"{side}_noise", flags.get("noise", 0.0)),
        }
        if kind == "puck":
            text = flags.get(f"{side}_friction") or default_friction
            friction = _float_list(text, f"--{side}-friction")
            if len(friction) != 2:
                raise UsageError(f"--{side}-friction expects exactly two numbers, got {text!r}")
            part["friction"] = tuple(friction)
            part["curl"] = flags.get(f"{side}_curl", 0.0)
        else:
            for field, name, parse in (
                ("scales", "scales", _float_list),
                ("inverted", "invert", _int_list),
                ("disabled", "disable", _int_list),
            ):
                text = flags.get(f"{side}_{name}")
                if text:
                    part[field] = parse(text, f"--{side}-{name}")
        doc[side] = part
    return doc


def _spec_int(doc: dict, key: str, default=None) -> int:
    value = doc.get(key, default)
    return _json_int(value, BadSpec, f"spec field {key!r} must be an integer, got {value!r}")


def _pair_from_doc(doc: dict, seed: int):
    """``(n, action_dim, source, target)`` from a pair spec document.

    Both sides start from the shared fields (kind; for linear pairs the
    dynamics and controls, drawn from the seed unless given) and the side's
    label, then take the side's own object on top.
    """
    unknown = set(doc) - _PAIR_SPEC_KEYS
    if unknown:
        raise BadSpec(f"unknown spec file fields: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in ("linear", "puck"):
        raise BadSpec(f"spec file must set kind to 'linear' or 'puck', got {kind!r}")
    if doc.get("n") is None:
        raise BadSpec("sample count is missing: set 'n' in the spec file or pass --n")
    n = _spec_int(doc, "n")
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
                stated = _spec_int(doc, key)
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
        sides.append(DomainSpec.from_dict({**base, "label": side, **part}))
    return n, k, sides[0], sides[1]


def cmd_synth(args) -> int:
    if args.spec is not None:
        pair_flags = sorted(set(vars(args)) - _SPEC_ARGS)
        if pair_flags:
            names = ", ".join("--" + name.replace("_", "-") for name in pair_flags)
            raise UsageError(f"--spec combines only with --n, --seed and --out, not with {names}")
    out = Path(_require_out(args))
    if not out.is_dir():
        raise OSError(f"output directory does not exist: {out}")
    if args.spec is not None:
        doc = _read_json(args.spec, BadSpec, "spec file")
        if args.n is not None:
            doc["n"] = args.n
    else:
        doc = _doc_from_flags(args)
    n, k, source_spec, target_spec = _pair_from_doc(doc, args.seed)
    actions = rng_stream(args.seed, "actions").standard_normal((n, k))
    generate = gen_puck if source_spec.kind == "puck" else gen_linear
    src = generate(source_spec, actions, args.seed)
    tgt = generate(target_spec, actions, args.seed)
    save_dataset(src, out / "source.csv", paired=(tgt, out / "target.csv"))
    log.info("wrote %s and %s", out / "source.csv", out / "target.csv")
    print(
        f"synth: kind={source_spec.kind} n={n} state_dim={src.state_dim} "
        f"action_dim={src.action_dim} out={out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    out = _require_out(args)
    src, tgt = load_csv(args.source), load_csv(args.target)
    model = fit(src, tgt)
    frob = float(np.linalg.norm(model.composed.matrix))
    # scored before the model is written, so a failing fit leaves no file
    if src.n <= MAX_EXACT:
        rho = repr(affinity_score(apply(model, src.rows), tgt.rows))
    else:
        rho = "n/a"
    save_model(model, out)
    log.info("wrote model to %s", out)
    print(
        f"fit: n={model.meta.n_fit} dim={model.dim} state_dim={model.state_dim} "
        f"action_dim={model.action_dim} frob_A={frob!r} rho_aff={rho}"
    )
    return EXIT_OK


def _write_rows(path, doc, fmt) -> None:
    """Write one record (a dict) or a list of records: as JSON, or as a CSV
    whose header is the records' keys, one row per record."""
    if fmt == "json":
        _write_json(path, doc)
    else:
        rows = doc if isinstance(doc, list) else [doc]
        _write_csv(path, list(rows[0]), (row.values() for row in rows))


def cmd_eval(args) -> int:
    out = _require_out(args)
    model = load_model(args.model)
    src, tgt = load_csv(args.source), load_csv(args.target)
    report = evaluate(model, src, tgt)
    _write_rows(out, dataclasses.asdict(report), args.fmt)
    log.info("wrote report to %s", out)
    print(
        f"eval: n_eval={report.n_eval} error_before={report.error_before_mean!r} "
        f"error_after={report.error_after_mean!r} rho_aff={report.rho_aff!r}"
    )
    return EXIT_OK


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
    Each repeat is reduced to its paired moments, and the moments of up to
    ``_CURVE_BLOCK`` repeats are fitted by one call of the stacked kernel.
    Only the pointwise part of the evaluation runs, so no transport is solved
    and the holdout is not limited by the exact solver's cap. Raises BadSpec
    for ``repeats`` below 1 or a size above the pool, and TooFewSamples for a
    size below 2.
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
    _check_eval_inputs(pool_s.width, hold_s, hold_t)
    w, sd = pool_s.width, pool_s.state_dim
    block = max(1, min(repeats, _CURVE_BLOCK))
    # one block's moments, filled in place for every block: allocating them
    # per repeat, between each repeat's short-lived gathered rows, fragments
    # the heap and raises the peak RSS
    mean_s, mean_t = np.empty((block, w)), np.empty((block, w))
    gram = np.empty((block, 2 * w, 2 * w))
    points = []
    for size in sizes:
        errors = np.empty(repeats)
        for start in range(0, repeats, block):
            reps = range(start, min(start + block, repeats))
            for j, rep in enumerate(reps):
                idx = np.sort(
                    rng_stream(seed, "curve", size, rep).choice(pool_s.n, size=size, replace=False)
                )
                moments = _paired_moments(pool_s.rows[idx], pool_t.rows[idx])
                _, mean_s[j], mean_t[j], gram[j] = moments
            k = len(reps)
            r, a, b = _fit_moments(size, mean_s[:k], mean_t[:k], gram[:k])
            _check_maps(r, a)
            # evaluate_pointwise's error_after of each map: apply() to the
            # holdout, then pointwise_error of the next states. One map at a
            # time, so the curve holds one transported copy of the holdout.
            for rep, matrix, offset in zip(reps, a @ r, b):
                transported = hold_s.rows @ matrix.T + offset
                errors[rep] = pointwise_error(transported[:, -sd:], hold_t.next_states)[0]
        points.append(LearningCurvePoint(size, float(errors.mean()), float(errors.std()), repeats))
    return points


def cmd_learning_curve(args) -> int:
    out = _require_out(args)
    sizes = _int_list(args.sizes, "--sizes")
    if not sizes or any(s < 2 for s in sizes):
        raise UsageError(f"--sizes needs fit sizes of at least 2, got {args.sizes!r}")
    if not 0.0 < args.holdout_fraction < 1.0:
        raise UsageError(
            f"--holdout-fraction must be in (0, 1), got {args.holdout_fraction}"
        )
    src, tgt = load_csv(args.source), load_csv(args.target)
    check_paired(src, tgt)
    fractions = (1.0 - args.holdout_fraction, args.holdout_fraction)
    pool_s, hold_s = split(src, fractions, args.seed)
    pool_t, hold_t = split(tgt, fractions, args.seed)
    points = learning_curve(pool_s, pool_t, hold_s, hold_t, sizes, args.repeats, args.seed)
    _write_rows(out, [dataclasses.asdict(p) for p in points], args.fmt)
    log.info("wrote learning curve to %s", out)
    for p in points:
        print(
            f"learning-curve: n_fit={p.n_fit} mean_error={p.mean_error!r} "
            f"std_error={p.std_error!r} repeats={p.repeats}"
        )
    return EXIT_OK


def cmd_score(args) -> int:
    src, tgt = load_csv(args.source), load_csv(args.target)
    check_paired(src, tgt)
    transport = at_map(src.rows, tgt.rows)
    rho = affinity_score(transport.apply(src.rows), tgt.rows)
    print(f"rho_aff={rho!r} n={src.n}")
    if args.out:
        _write_rows(args.out, {"rho_aff": rho, "n": src.n}, args.fmt)
    return EXIT_OK


def _exit_code_for(exc: Exception) -> int:
    io_errors = (OSError, UnicodeDecodeError, MalformedCsv, MissingManifest, MalformedModel)
    if isinstance(exc, io_errors):
        return EXIT_IO
    if isinstance(exc, PairingMismatch):
        return EXIT_PAIRING
    if isinstance(exc, DimensionMismatch):
        return EXIT_DIMENSION
    return EXIT_CONFIG


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    _configure_logging()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AffineTransportError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
