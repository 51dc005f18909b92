#!/usr/bin/env python3
"""Survey symbol ellipticity of the stf-gradient across dimensions.

Prints the minimal singular value over the sampled frequency strata for
both the real and complex tests, the dimension-dependent prefactor table
and the rank-one lower bounds of the vector-field operators. The d = 2
row is the expected counterexample: the minimum drops to zero on the
isotropic cone.
"""

import argparse

import numpy as np

from r13verify.ellipticity import (
    OperatorSpec,
    SamplingPlan,
    check_ellipticity,
    general_d_prefactors,
    lh_constant,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    plan = SamplingPlan(seed=args.seed)
    print(f"{'d':>3} {'mode':>4} {'elliptic':>8} {'min sv':>12} {'samples':>8}")
    for d in args.dims:
        check = check_ellipticity(OperatorSpec("stf2", "Stf", d), plan)
        for mode, v in (("R", check.real), ("C", check.complex)):
            print(
                f"{d:>3} {mode:>4} {str(v.elliptic):>8} "
                f"{v.min_singular_value:>12.4e} {v.n_samples:>8}"
            )
            if not v.elliptic:
                xi = np.array2string(v.xi_min, precision=3)
                print(f"      kernel at xi = {xi}, residual {v.witness_residual:.1e}")

    print("\nprefactors (c_stf, c_symbol, c_core1, c_case1, c_case2):")
    for d in args.dims:
        vals = ", ".join(str(v) for v in general_d_prefactors(d).as_tuple())
        print(f"  d={d}: {vals}")

    print("\nrank-one lower bounds:")
    for d in args.dims:
        lams = ", ".join(
            f"{kind} {lh_constant(OperatorSpec('vectors', kind, d)):.6f}"
            for kind in ("identity", "sym", "skew", "dev", "stf")
        )
        print(f"  d={d}: {lams}")


if __name__ == "__main__":
    main()
