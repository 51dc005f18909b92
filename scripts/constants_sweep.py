#!/usr/bin/env python3
"""Sweep the measured saddle-point constants over Kn, epsilon_w and degree.

The dim(ker B^T) column stays at 7 for every configuration: the
equal-degree pairing cannot reach the top corner monomials, so the
constraint operator has a fixed structural cokernel. k0 is measured off
that nullspace.
"""

import argparse

from r13verify.assembly import ModelParams, assemble_system
from r13verify.saddlepoint import brezzi_constants
from r13verify.spaces import build_spaces


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--degrees", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--subdivisions", type=int, default=1)
    ap.add_argument("--kn", type=float, nargs="+", default=[1.0, 0.1])
    ap.add_argument("--epsilon-w", type=float, nargs="+", default=[0.0, 0.1], dest="eps")
    args = ap.parse_args()

    header = f"{'N':>2} {'eps':>5} {'Kn':>6} {'alpha0':>10} {'k0':>10} {'|A|':>10} {'|B|':>8} {'kerB':>5} {'kerBT':>5}"
    print(header)
    for N in args.degrees:
        for eps in args.eps:
            # one spaces per (N, eps): the Kn loop reuses its B, M_V, M_Q and their SVDs
            sp = build_spaces(N, args.subdivisions, "zero_mean" if eps == 0.0 else "full")
            for kn in args.kn:
                c = brezzi_constants(assemble_system(sp, ModelParams(kn, 1.0, eps)))
                print(
                    f"{N:>2} {eps:>5.2f} {kn:>6.2f} {c.alpha0:>10.4e} {c.k0:>10.4e} "
                    f"{c.norm_A:>10.4e} {c.norm_B:>8.4f} {c.dim_kerB:>5} {c.dim_kerBT:>5}"
                )


if __name__ == "__main__":
    main()
