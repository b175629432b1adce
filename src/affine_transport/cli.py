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
from pathlib import Path

import numpy as np

from .data import (
    _read_json,
    _write_csv,
    _write_json,
    check_paired,
    gen_linear,
    gen_puck,
    load_csv,  # not called here; kept bound for perfbench/tracing.py, which wraps cli.load_csv
    load_pair,
    pair_specs,
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
)
from .gaussian_ot import at_map  # not called here; perfbench/tracing.py wraps cli.at_map
from .discrete_ot import MAX_EXACT
from .transfer import (
    _score_pair,
    affinity_score,
    apply,
    evaluate,
    fit,
    learning_curve,
    load_model,
    save_model,
)

__all__ = ["main", "build_parser"]

log = logging.getLogger("affine_transport.cli")

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
    # flag given at its default from one not given; pair_specs applies the
    # defaults that the help texts state, but for the puck target friction,
    # which _doc_from_flags sets
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


class _Stderr(logging.StreamHandler):
    """A handler on whatever ``sys.stderr`` is when a record is written."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)


_HANDLER = _Stderr()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging() -> None:
    """Send the package's records to stderr at AT_LOG_LEVEL. Only the
    ``affine_transport`` logger is set, and its records stop there: the root
    logger belongs to the process that calls ``main``."""
    name = os.environ.get("AT_LOG_LEVEL", "warn").strip().lower()
    logger = logging.getLogger("affine_transport")
    logger.setLevel(_LOG_LEVELS.get(name, logging.WARNING))
    logger.propagate = False
    if _HANDLER not in logger.handlers:
        logger.addHandler(_HANDLER)


def _require_out(args) -> str:
    if not args.out:
        raise UsageError("--out is required for this command")
    return args.out


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma separated numbers, got {text!r}")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma separated integers, got {text!r}")


# the synth arguments that combine with --spec; every other one is a pair flag
_SPEC_ARGS = {"command", "func", "spec", "n", "seed", "out"}
# synth's per-side flags, --source-NAME and --target-NAME: NAME -> the side's
# spec field and the parser of the flag's text, for the list flags
_SIDE_FLAGS = {"label": ("label", None), "noise": ("noise_std", None), "curl": ("curl", None),
               "friction": ("friction", _float_list), "scales": ("scales", _float_list),
               "invert": ("inverted", _int_list), "disable": ("disabled", _int_list)}


def _flag_names(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in sorted(names))


def _doc_from_flags(args) -> dict:
    """The pair spec document that synth's flags spell: each given flag sets
    its field, and ``pair_specs`` judges and fills in the rest as a --spec
    file's. The one default here, the puck target friction, is not a file's."""
    given = vars(args)
    kind = given.get("kind")
    if kind is None:
        raise UsageError("synth needs --kind (or a --spec file)")
    if args.n is None:
        raise UsageError("synth needs --n (or a --spec file with 'n')")
    flags = {"target_friction": "0.1,0.4"} if kind == "puck" else {}
    if "noise" in given:
        flags["source_noise"] = flags["target_noise"] = given["noise"]
    flags.update(given)
    doc = {"kind": kind, "n": args.n}
    doc.update((key, flags[key]) for key in ("state_dim", "action_dim") if key in flags)
    for side in ("source", "target"):
        part = doc[side] = {}
        for name, (field, parse) in _SIDE_FLAGS.items():
            flag = f"{side}_{name}"
            if flag in flags:
                part[field] = parse(flags[flag], f"--{side}-{name}") if parse else flags[flag]
    return doc


def cmd_synth(args) -> int:
    if args.spec is not None:
        pair_flags = set(vars(args)) - _SPEC_ARGS
        if pair_flags:
            raise UsageError("--spec combines only with --n, --seed and --out, not with "
                             + _flag_names(pair_flags))
    out = Path(_require_out(args))
    if not out.is_dir():
        raise OSError(f"output directory does not exist: {out}")
    if args.spec is not None:
        doc = _read_json(args.spec, BadSpec, "spec file")
        if args.n is not None:
            doc["n"] = args.n
    else:
        doc = _doc_from_flags(args)
    n, k, source_spec, target_spec = pair_specs(doc, args.seed)
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
    src, tgt = load_pair(args.source, args.target)
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
    src, tgt = load_pair(args.source, args.target)
    report = evaluate(model, src, tgt)
    _write_rows(out, dataclasses.asdict(report), args.fmt)
    log.info("wrote report to %s", out)
    print(
        f"eval: n_eval={report.n_eval} error_before={report.error_before_mean!r} "
        f"error_after={report.error_after_mean!r} rho_aff={report.rho_aff!r}"
    )
    return EXIT_OK


def cmd_learning_curve(args) -> int:
    out = _require_out(args)
    sizes = _int_list(args.sizes, "--sizes") if args.sizes else []
    if not sizes or any(s < 2 for s in sizes):
        raise UsageError(f"--sizes needs fit sizes of at least 2, got {args.sizes!r}")
    if not 0.0 < args.holdout_fraction < 1.0:
        raise UsageError(
            f"--holdout-fraction must be in (0, 1), got {args.holdout_fraction}"
        )
    src, tgt = load_pair(args.source, args.target)
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
    src, tgt = load_pair(args.source, args.target)
    rho = _score_pair(src, tgt)
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
        _configure_logging()
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (AffineTransportError, OSError, UnicodeDecodeError, MemoryError, ImportError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
