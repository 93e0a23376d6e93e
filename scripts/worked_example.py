#!/usr/bin/env python3
"""Walk through the two-dimensional worked example.

Prints the signed standardized margins, the three multidimensional risk
estimates, the Monte-Carlo reference, and the conservatism of each method on
the constraint y ~ N([-2, -1], [[1.1, -0.8], [-0.8, 1]]).
"""

import argparse
import sys

import numpy as np

from ccrisk import (
    GaussianVec,
    conservatism,
    mc_risk,
    risk_dth_order,
    risk_first_order,
    risk_spectral,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mc-samples", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    g = GaussianVec([-2.0, -1.0], [[1.1, -0.8], [-0.8, 1.0]])
    radii = g.radii
    perm = np.argsort(radii, kind="stable")
    r_tilde = np.concatenate(([0.0], radii[perm]))
    print(f"signed standardized margins r = {radii}")
    print(f"sorted radii (0 prepended)   = {r_tilde}, order = {list(perm)}")

    estimates = {
        "spectral_radius": risk_spectral(g).value,
        "first_order": risk_first_order(g).value,
        "dth_order": risk_dth_order(g).value,
    }
    ref = mc_risk(g, args.mc_samples, args.seed)
    print(f"monte-carlo reference beta_R = {ref.estimate:.6f} "
          f"(95% CI [{ref.ci_low:.6f}, {ref.ci_high:.6f}], n={ref.n_samples})")
    for name, value in estimates.items():
        gamma = conservatism(value, ref.estimate)
        print(f"{name:16s} beta_T = {value:.6f}  conservatism = {gamma:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
