#!/usr/bin/env python3
"""The paper's experiments, one `ritzspline.cli.main` argument list each.

Run with no arguments, every experiment runs in the order below and the
script exits with the first nonzero status; each writes deterministic
CSV (plus SVG or JSON where applicable) under results/.

    python3 scripts/experiments.py
"""

import sys

from ritzspline.cli import main

# sin(4x) on maximally smooth spaces of degree 2, 3, 4 and dyadic meshes
# h = 2^-i, i = 1..5, measuring the value and the first derivative
STUDY = ["converge", "--function", "sin(4*x)", "--p-list", "2,3,4", "--k", "max", "--q", "2",
         "--l-list", "0,1", "--levels", "5"]

EXPERIMENTS = {
    # convergence of the boundary-interpolating projector Q
    "error": [*STUDY, "--study", "error", "--out", "results/error"],
    # superconvergence of R - Q: observed order 2(p-q+1), ahead of the proven rate
    "rq-diff": [*STUDY, "--study", "rq-diff", "--out", "results/rq-diff"],
    # log-gap between the classical knot-interpolation constants and ours, q = 1..8
    "schultz-gap": ["constants", "--table", "schultz-gap", "--q-max", "8",
                    "--out", "results/schultz_gap.csv"],
    # clamped biharmonic spectrum on cubic maximally smooth splines, 20 elements
    "outlier-lab": ["eig", "--p", "3", "--elements", "20", "--threshold", "0.1",
                    "--out", "results/eig"],
}


if __name__ == "__main__":
    for argv in EXPERIMENTS.values():
        if status := main(argv):
            sys.exit(status)
