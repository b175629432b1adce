#!/usr/bin/env python3
"""Held-out transfer error versus domain randomization strength.

Builds linear domain pairs that share dynamics, states and actions while the
target's per-coordinate scale factors are drawn log-uniformly from
[1/strength, strength]. Stronger randomization pushes the target further
from the source, so untransported error grows with strength; the fitted map
should absorb most of the gap at every level.
"""

import argparse

import numpy as np

from affine_transport import DomainSpec, evaluate, fit, gen_linear, rng_stream, split

STRENGTHS = [1.2, 1.5, 2.0, 3.0, 4.0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=600, help="rows per domain")
    ap.add_argument("--state-dim", type=int, default=3)
    ap.add_argument("--action-dim", type=int, default=2)
    ap.add_argument("--noise", type=float, default=0.02)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    d, k = args.state_dim, args.action_dim
    base = rng_stream(args.seed, "sweep-base")
    dynamics = base.standard_normal((d, d)) / np.sqrt(d)
    controls = base.standard_normal((d, k)) / np.sqrt(k)
    actions = rng_stream(args.seed, "sweep-actions").standard_normal((args.n, k))
    source_spec = DomainSpec(
        "linear", label="source", noise_std=args.noise, dynamics=dynamics, controls=controls
    )
    src = gen_linear(source_spec, actions, args.seed)
    fit_s, hold_s = split(src, (0.5, 0.5), args.seed)

    print(f"d={d}, k={k}, n={args.n}, noise={args.noise}, seed={args.seed}")
    print(f"{'strength':>8} {'before':>10} {'after':>10} {'rho_aff':>8}")
    for strength in STRENGTHS:
        log_s = np.log(strength)
        scales = np.exp(rng_stream(args.seed, "sweep-scales", strength).uniform(-log_s, log_s, d))
        target_spec = DomainSpec(
            "linear",
            label="target",
            noise_std=args.noise,
            dynamics=dynamics,
            controls=controls,
            scales=scales,
        )
        tgt = gen_linear(target_spec, actions, args.seed)
        fit_t, hold_t = split(tgt, (0.5, 0.5), args.seed)
        report = evaluate(fit(fit_s, fit_t), hold_s, hold_t)
        print(
            f"{strength:>8.1f} {report.error_before_mean:>10.4f} "
            f"{report.error_after_mean:>10.4f} {report.rho_aff:>8.3f}"
        )


if __name__ == "__main__":
    main()
