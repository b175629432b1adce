#!/usr/bin/env python3
"""Transfer quality across puck friction gaps.

Fits a transfer map from an isotropic reference puck onto targets with
increasingly mismatched per-axis friction, then prints held-out next-state
error before and after transport plus the affinity score. The last column
should stay high as long as the two domains differ by an affine outcome map,
which for the puck they do.
"""

import argparse

from affine_transport import DomainSpec, evaluate, fit, gen_puck, rng_stream, split

TARGETS = [(0.1, 0.15), (0.1, 0.2), (0.1, 0.4), (0.2, 0.6), (0.4, 0.8)]


def make_pair(seed, n, noise, friction):
    actions = rng_stream(seed, "actions").uniform(-3.0, 3.0, size=(n, 2))
    source = DomainSpec("puck", label="source", noise_std=noise)
    target = DomainSpec(
        "puck",
        label="target",
        noise_std=noise,
        friction_x=friction[0],
        friction_y=friction[1],
    )
    return gen_puck(source, actions, seed), gen_puck(target, actions, seed)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=400, help="rows per domain")
    ap.add_argument("--noise", type=float, default=0.01, help="observation noise std")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"source friction (0.10, 0.10), n={args.n}, noise={args.noise}, seed={args.seed}")
    print(f"{'mu_x':>6} {'mu_y':>6} {'before':>10} {'after':>10} {'rho_aff':>8}")
    for friction in TARGETS:
        src, tgt = make_pair(args.seed, args.n, args.noise, friction)
        fit_s, hold_s = split(src, (0.5, 0.5), args.seed)
        fit_t, hold_t = split(tgt, (0.5, 0.5), args.seed)
        report = evaluate(fit(fit_s, fit_t), hold_s, hold_t)
        print(
            f"{friction[0]:>6.2f} {friction[1]:>6.2f} {report.error_before_mean:>10.4f} "
            f"{report.error_after_mean:>10.4f} {report.rho_aff:>8.3f}"
        )


if __name__ == "__main__":
    main()
