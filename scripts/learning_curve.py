#!/usr/bin/env python3
"""Held-out error versus number of paired fit samples.

Fits the transfer map on seeded without-replacement subsamples of a linear
domain pair and evaluates every fit on one fixed held-out block, aggregating
over repeats. Writes the curve as CSV and prints it. The mean error should
fall roughly as 1/sqrt(n) until the observation noise floor takes over.
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from affine_transport import DomainSpec, gen_linear, rng_stream, split
from affine_transport.cli import LearningCurvePoint, learning_curve
from affine_transport.data import _write_csv

SIZES = [8, 16, 32, 64, 128, 256, 512]


def make_pair(seed, n, noise):
    base = rng_stream(seed, "curve-base")
    dynamics = base.standard_normal((3, 3)) / np.sqrt(3.0)
    controls = base.standard_normal((3, 2)) / np.sqrt(2.0)
    actions = rng_stream(seed, "curve-actions").standard_normal((n, 2))
    shared = dict(dynamics=dynamics, controls=controls, noise_std=noise)
    source = DomainSpec("linear", label="source", **shared)
    target = DomainSpec(
        "linear", label="target", scales=np.array([2.0, 0.5, 1.3]), inverted=(1,), **shared
    )
    return gen_linear(source, actions, seed), gen_linear(target, actions, seed)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1024, help="total rows per domain")
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--holdout-fraction", type=float, default=0.25)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="learning_curve.csv")
    args = ap.parse_args()

    src, tgt = make_pair(args.seed, args.n, args.noise)
    fractions = (1.0 - args.holdout_fraction, args.holdout_fraction)
    pool_s, hold_s = split(src, fractions, args.seed)
    pool_t, hold_t = split(tgt, fractions, args.seed)
    sizes = [s for s in SIZES if s <= pool_s.n]

    print(f"{'n_fit':>6} {'mean_error':>12} {'std_error':>12}")
    points = learning_curve(pool_s, pool_t, hold_s, hold_t, sizes, args.repeats, args.seed)
    for p in points:
        print(f"{p.n_fit:>6} {p.mean_error:>12.5f} {p.std_error:>12.5f}")

    out = Path(args.out)
    header = [f.name for f in dataclasses.fields(LearningCurvePoint)]
    _write_csv(out, header, map(dataclasses.astuple, points))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
