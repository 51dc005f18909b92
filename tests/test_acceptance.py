"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5 asserts a full-range discrete pairing (dim ker B^T = 0), so
it builds the enriched pairing (sigma and s one degree above p, u and
theta). The default equal-degree spaces have a structural 7-dimensional
cokernel (corner monomials of the top tensor degree are not divergences
of fields in the space); test_saddlepoint and the report keep asserting
that. See the README section on the two pairings.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from r13verify.assembly import (
    BoundaryData,
    ModelParams,
    assemble_form,
    assemble_system,
)
from r13verify.ellipticity import (
    OperatorSpec,
    SamplingPlan,
    apply_symbol,
    check_ellipticity,
    general_d_prefactors,
)
from r13verify.korn import (
    coercivity_chain_check,
    div_right_inverse,
    korn_constant,
    korn_rayleigh,
    scalar_div_right_inverse,
)
from r13verify.report import RunConfig, limit_study_boundary_data, run
from r13verify.saddlepoint import (
    brezzi_constants,
    limit_consistency,
    solve_mixed,
)
from r13verify.spaces import build_spaces


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}")


def test_criterion_1_complex_ellipticity_dichotomy():
    t0 = time.perf_counter()
    plan = SamplingPlan(seed=0)
    ok = True
    for d in (3, 4, 5):
        v = check_ellipticity(OperatorSpec("stf2", "Stf", d), "C", plan)
        ok &= v.elliptic and v.min_singular_value >= 1e-8 and v.n_samples >= 10**4
    v2 = check_ellipticity(OperatorSpec("stf2", "Stf", 2), "C", plan)
    ok &= (not v2.elliptic) and v2.n_samples >= 10**4
    ok &= v2.witness is not None and v2.witness_residual <= 1e-12
    ok &= abs(v2.xi_min @ v2.xi_min) <= 1e-10  # minimizer on the isotropic cone
    T = np.array([[1j, 1.0], [1.0, -1j]])
    xi = np.array([1.0, 1j])
    pair_res = np.linalg.norm(apply_symbol(OperatorSpec("stf2", "Stf", 2), T, xi))
    ok &= pair_res <= 1e-12 * np.linalg.norm(T)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _line(1, ok, f"complex-ellipticity dichotomy d=2..5 ({elapsed:.1f}s < 10s)")
    assert ok


def test_criterion_2_prefactor_table():
    p3 = general_d_prefactors(3).as_tuple()
    target = (
        Fraction(1, 5),
        Fraction(2, 15),
        Fraction(3, 5),
        Fraction(8, 15),
        Fraction(1, 15),
    )
    ok = p3 == target and general_d_prefactors(2).c_case2 == 0
    _line(2, ok, "prefactor table exact at d=3, case-2 factor vanishes at d=2")
    assert ok


def test_criterion_3_tensor_korn():
    t0 = time.perf_counter()
    op = OperatorSpec("stf2", "Stf", 3)
    ok = True
    for N in (1, 2, 3):
        sp = build_spaces(N, 1, "full")
        est = korn_constant(op, sp)
        ok &= np.isfinite(est.constant) and est.constant > 0
        dev = abs(korn_rayleigh(op, sp, est.extremizer) - est.constant) / est.constant
        ok &= dev <= 1e-9
    sp = build_spaces(2, 1, "full")
    params = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.1)
    rng = np.random.default_rng(42)
    heat, stress = [], []
    for _ in range(200):
        heat.append(rng.standard_normal((3, sp.n_scalar)))
        stress.append((rng.standard_normal((5, sp.n_scalar)), rng.standard_normal(sp.n_p)))
    violations = sum(not r.holds for r in coercivity_chain_check("heat", heat, sp, params))
    violations += sum(not r.holds for r in coercivity_chain_check("stress", stress, sp, params))
    ok &= violations == 0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _line(3, ok, f"tensor Korn constants + 200-field coercivity chains ({elapsed:.1f}s < 60s)")
    assert ok


def test_criterion_4_divergence_right_inverse():
    ok = True
    N = 2
    sp = build_spaces(N, 1, "full")
    sb = sp.scalar
    # vector data of per-direction degree <= N-1
    u = np.stack(
        [
            sb.project(lambda q: 1.0 + q[:, 0]),
            sb.project(lambda q: q[:, 1] - 0.5),
            sb.project(lambda q: q[:, 2]),
        ]
    )
    for proj in ("identity", "stf", "sym"):
        res = div_right_inverse(u, proj, sp)
        ok &= res.weak_residual <= 1e-10
        ok &= res.range_residual <= 1e-13
        ok &= res.energy_gap <= 1e-10
    kappa = sb.project(lambda q: q[:, 0] + q[:, 1])
    sres = scalar_div_right_inverse(kappa, sp)
    ok &= sres.weak_residual <= 1e-10 and sres.energy_gap <= 1e-10
    ratios = []
    for NN in (3, 4):
        spN = build_spaces(NN, 1, "full")
        uN = np.zeros((3, spN.n_scalar))
        uN[0] = spN.scalar.project(lambda q: np.ones(q.shape[0]))
        ratios.append(div_right_inverse(uN, "stf", spN).bound_ratio)
    ok &= abs(ratios[1] - ratios[0]) <= 0.2 * ratios[0]
    _line(4, ok, "divergence right-inverse: weak identity, range, energy, stability")
    assert ok


def test_criterion_5_brezzi_constants():
    t0 = time.perf_counter()
    ok_measured = True
    deficiencies = set()
    for N in (1, 2):
        for eps in (0.0, 0.1):
            for kn in (0.1, 1.0):
                mode = "zero_mean" if eps == 0.0 else "full"
                sp = build_spaces(N, 1, mode, pairing="enriched")
                params = ModelParams(kn, 1.0, eps)
                system = assemble_system(sp, params)
                consts = brezzi_constants(system)
                ok_measured &= consts.alpha0 > 0 and consts.k0 > 0
                deficiencies.add(consts.dim_kerBT)
                S = system.A - system.A.T
                C = assemble_form("c", sp, params)
                vb, qb = sp.v_blocks, sp.q_blocks
                ok_measured &= np.max(np.abs(S[vb["sigma"], vb["s"]] - 2 * C.T)) <= 1e-12
                ok_measured &= np.max(np.abs(S[vb["s"], vb["sigma"]] + 2 * C)) <= 1e-12
                ok_measured &= np.max(np.abs(S[vb["sigma"], vb["sigma"]])) <= 1e-12
                ok_measured &= np.max(np.abs(S[vb["p"], :])) <= 1e-12
                ok_measured &= np.max(np.abs(system.B[qb["u"], vb["s"]])) == 0.0
                ok_measured &= np.max(np.abs(system.B[qb["theta"], vb["sigma"]])) == 0.0
    elapsed = time.perf_counter() - t0
    ok_measured &= elapsed < 300.0
    full_range = deficiencies == {0}
    ok = ok_measured and full_range
    _line(
        5,
        ok,
        f"Brezzi constants: alpha0, k0 > 0 and identities "
        f"{'pass' if ok_measured else 'fail'}; dim ker B^T = "
        f"{sorted(deficiencies)} (required 0) ({elapsed:.1f}s < 300s)",
    )
    assert ok_measured
    # The equal-degree pairing has a 7-dimensional cokernel: top-degree
    # corner monomials are not reachable by first derivatives of degree-N
    # fields. With sigma and s at degree N+1 every (u, theta) of degree N
    # is reached, so the enriched pairing maps onto Q.
    assert full_range, (
        f"discrete pairing deficient: dim ker B^T = {sorted(deficiencies)}"
    )


def test_criterion_6_main_theorem_bounds():
    sp = build_spaces(2, 1, "full")
    params = ModelParams(1.0, 1.0, 0.1)
    system = assemble_system(sp, params)
    consts = brezzi_constants(system)
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(10):
        bdata = BoundaryData(
            u_n_w=0.5 * rng.standard_normal(6),
            u_t1_w=0.5 * rng.standard_normal(6),
            u_t2_w=0.5 * rng.standard_normal(6),
            p_w=0.5 * rng.standard_normal(6),
            theta_w=0.5 * rng.standard_normal(6),
        )
        sys_i = assemble_system(sp, params, None, bdata)
        sol = solve_mixed(sys_i, consts)
        ok &= sol.residual_primal <= 1e-10 and sol.residual_constraint <= 1e-10
        ok &= sol.bounds_hold

    sol0 = solve_mixed(system, consts)
    ok &= np.linalg.norm(sol0.U) + np.linalg.norm(sol0.P) <= 1e-12

    bdata = BoundaryData(theta_w=np.ones(6))
    sys_1 = assemble_system(sp, params, None, bdata)
    sol1 = solve_mixed(sys_1, consts)
    import copy

    sys_2 = copy.copy(sys_1)
    sys_2.F, sys_2.G = 2.0 * sys_1.F, 2.0 * sys_1.G
    sol2 = solve_mixed(sys_2, consts)
    dev = np.linalg.norm(sol2.U - 2 * sol1.U) + np.linalg.norm(sol2.P - 2 * sol1.P)
    ok &= dev <= 1e-11 * max(np.linalg.norm(sol1.U) + np.linalg.norm(sol1.P), 1.0)
    _line(6, ok, "main-theorem stability bounds on 10 seeded wall-data sets")
    assert ok


def test_criterion_7_hydrodynamic_limit():
    results = []
    sp = build_spaces(2, 2, "full")
    for kn in (1.0, 0.3, 0.1):
        system = assemble_system(
            sp, ModelParams(kn, 1.0, 0.1), None, limit_study_boundary_data()
        )
        sol = solve_mixed(system, verify_bounds=False)
        results.append(limit_consistency(sol.U, sol.P, system))
    ns = [r[0] for r in results]
    fo = [r[1] for r in results]
    ok = ns[0] > ns[1] > ns[2] and fo[0] > fo[1] > fo[2]
    _line(7, ok, f"Stokes/Fourier limit monotone: NS={ns} Fourier={fo}")
    assert ok


def test_criterion_8_determinism(tmp_path):
    cfg = dict(suites=("ellipticity", "constants"), degree=1, seed=11)
    a = run(RunConfig(**cfg)).write(tmp_path / "a")[1].read_bytes()
    b = run(RunConfig(**cfg)).write(tmp_path / "b")[1].read_bytes()
    ok = a == b
    _line(8, ok, "byte-identical CSV reports for identical config and seed")
    assert ok
