#!/usr/bin/env python3
"""Korn-constant trends and the hydrodynamic-limit diagnostic.

Part 1 sweeps the discrete Korn constants and the kernel dimensions of
the projected gradients over the degree, on one scalar basis per (d, N):
at d = 3 they saturate (the continuous constant exists), while the
planar d = 2 embedding grows with N, which is how the missing complex
ellipticity shows up numerically. The trace-free symmetrized gradient of
vectors is the C-elliptic control: its kernel saturates at the 10
conformal Killing fields.

Part 2 re-solves the through-flow/heating problem over a Knudsen sweep
and reports the distance of (sigma, s) from the Navier-Stokes and Fourier
closures.
"""

import argparse

from r13verify.assembly import ModelParams, assemble_system
from r13verify.ellipticity import OperatorSpec
from r13verify.korn import korn_constant, operator_kernel_dimension
from r13verify.report import limit_study_boundary_data
from r13verify.saddlepoint import limit_consistency, solve_mixed
from r13verify.spaces import ScalarBasis, build_spaces


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-degree", type=int, default=4)
    ap.add_argument("--kn", type=float, nargs="+", default=[1.0, 0.3, 0.1])
    args = ap.parse_args()

    ops = {
        "sym grad, vectors (d=3)": OperatorSpec("vectors", "sym", 3),
        "Stf grad, stf fields (d=3)": OperatorSpec("stf2", "Stf", 3),
        "Stf grad, planar (d=2)": OperatorSpec("stf2", "Stf", 2),
        "stf grad, vectors (d=3)": OperatorSpec("vectors", "stf", 3),
    }
    degrees = range(1, args.max_degree + 1)
    bases = {(op.dim, N): ScalarBasis(op.dim, N, 1) for op in ops.values() for N in degrees}
    print("discrete Korn constants (squared-sum convention):")
    for name, op in ops.items():
        vals = [f"N={N}: {korn_constant(op, bases[op.dim, N]).constant:8.3f}" for N in degrees]
        print(f"  {name:28s} " + "  ".join(vals))

    print("\ndiscrete kernel dimensions of the projected gradients:")
    for name, op in ops.items():
        dims = [operator_kernel_dimension(op, bases[op.dim, N]) for N in degrees]
        print(f"  {name:28s} {dims}")

    print("\nclosure misfits over the Knudsen sweep (N=2, k=2, eps_w=0.1):")
    sp = build_spaces(2, 2, "full")
    bdata = limit_study_boundary_data()
    print(f"{'Kn':>6} {'res_NS':>10} {'res_Fourier':>12}")
    for kn in args.kn:
        system = assemble_system(sp, ModelParams(kn, 1.0, 0.1), None, bdata)
        sol = solve_mixed(system)
        res_ns, res_f = limit_consistency(sol.U, sol.P, system)
        print(f"{kn:>6.2f} {res_ns:>10.4f} {res_f:>12.4f}")


if __name__ == "__main__":
    main()
