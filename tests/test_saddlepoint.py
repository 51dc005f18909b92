import copy
import dataclasses
import gc
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from r13verify import saddlepoint
from r13verify.assembly import (
    BoundaryData,
    ModelParams,
    SaddleOperator,
    SaddlePart,
    SaddleStructure,
    VolumeSources,
    _B_terms,
    _norm_terms,
    _sector_assemble,
    assemble_system,
    bc_residuals,
)
from r13verify.korn import coercivity_chain_check
from r13verify.saddlepoint import (
    brezzi_constants,
    infsup_constant,
    limit_consistency,
    solve_mixed,
)
from r13verify.spaces import PAIRINGS, Sectors, build_spaces

from helpers import (
    cokernel_basis,
    coercivity_constant,
    dense_brezzi_constants,
    dense_mixed_solution,
    kernel_basis,
    kron_gram,
    oracle_forms,
    wall_residuals_oracle,
)


def make_system(N=2, k=1, eps=0.0, kn=1.0, sources=None, bdata=None, pairing="equal", mode=None):
    mode = mode or ("zero_mean" if eps == 0.0 else "full")
    sp = build_spaces(N, k, mode, pairing)
    params = ModelParams(kn=kn, chi_tilde=1.0, epsilon_w=eps)
    return assemble_system(sp, params, sources, bdata)


def on_edited_blocks(system, part=lambda p: {}, sector=lambda S: S):
    """A copy of the system on a new operator and structure, with every part p
    replaced by dataclasses.replace(p, **part(p)) and every sector block S of A
    by sector(S). The parts keep their Cholesky factors; no SVD or LU of the shared
    operator carries over."""
    op = system.operator
    parts = tuple(dataclasses.replace(p, **part(p)) for p in op.structure.parts)
    structure = dataclasses.replace(op.structure, parts=parts)
    return dataclasses.replace(system, operator=SaddleOperator(structure, [sector(S) for S in op.sectors]))


@pytest.fixture(scope="module")
def sys_eps0():
    return make_system(N=2, eps=0.0)


@pytest.fixture(scope="module")
def sys_eps01():
    return make_system(N=2, eps=0.1)


def test_kernel_dimension_rank_nullity(sys_eps0):
    Z = kernel_basis(sys_eps0)
    rank = np.linalg.matrix_rank(sys_eps0.B, tol=1e-10)
    assert Z.shape[1] == sys_eps0.spaces.n_V - rank
    assert np.max(np.linalg.norm(sys_eps0.B @ Z, axis=0)) < 1e-10


def test_kernel_contains_manufactured_element(sys_eps0):
    # constant stf stress, zero pressure, divergence-free heat flux
    sp = sys_eps0.spaces
    sb = sp.scalar
    n = sp.n_scalar
    one = sb.project(lambda q: np.ones(q.shape[0]))
    U = np.zeros(sp.n_V)
    U[sp.v_blocks["sigma"]].reshape(5, n)[1] = one
    s = U[sp.v_blocks["s"]].reshape(3, n)
    s[0] = sb.project(lambda q: q[:, 0])
    s[1] = sb.project(lambda q: -q[:, 1])
    Z = kernel_basis(sys_eps0)
    proj = Z @ (Z.T @ U)
    assert np.linalg.norm(U - proj) < 1e-10 * np.linalg.norm(U)


@pytest.mark.parametrize("N,eps", [(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)])
def test_alpha0_positive(N, eps):
    system = make_system(N=N, eps=eps)
    Z = kernel_basis(system)
    alpha0, zstar = coercivity_constant(system, Z)
    assert alpha0 > 0
    # Rayleigh consistency at the extremizer
    As = 0.5 * (system.A + system.A.T)
    ray = (zstar @ As @ zstar) / (zstar @ system.M_V @ zstar)
    assert ray == pytest.approx(alpha0, rel=1e-10, abs=1e-12)
    quad = zstar @ system.A @ zstar
    assert quad == pytest.approx(zstar @ As @ zstar, rel=1e-9, abs=1e-11)


def test_alpha0_vanishes_on_full_space_without_pressure_control():
    # with eps = 0 and unconstrained pressure modes the primal form has a
    # zero direction (any pure-pressure element), so the kernel restriction
    # is what makes the constant positive
    sp = build_spaces(1, 1, "full")
    system = assemble_system(sp, ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.0))
    As = 0.5 * (system.A + system.A.T)
    vals = sla.eigh(As, system.M_V, eigvals_only=True)
    assert abs(vals[0]) < 1e-10


def test_coercivity_requires_nontrivial_kernel(sys_eps0):
    with pytest.raises(ValueError, match="trivial kernel"):
        coercivity_constant(sys_eps0, np.zeros((sys_eps0.spaces.n_V, 0)))


def test_infsup_positive_and_cokernel_reported(sys_eps0):
    # the equal-degree pairing has a structural 7-dimensional cokernel
    # (corner monomials are not first derivatives of degree-N fields);
    # k0 is measured off that nullspace and must be positive
    k0, dim_kerBT = infsup_constant(sys_eps0)
    assert k0 > 0
    rank = np.linalg.matrix_rank(sys_eps0.B, tol=1e-10)
    assert dim_kerBT == sys_eps0.spaces.n_Q - rank
    assert dim_kerBT > 0


def test_infsup_scaling(sys_eps0):
    scaled = on_edited_blocks(sys_eps0, part=lambda p: {"B": 3.0 * p.B})
    k0, _ = infsup_constant(sys_eps0)
    k3, _ = infsup_constant(scaled)
    assert k3 == pytest.approx(3.0 * k0, rel=1e-10)


def test_operator_norm_identities(sys_eps0):
    consts = brezzi_constants(sys_eps0)
    assert consts.norm_B >= consts.k0
    assert consts.norm_A >= consts.alpha0


def test_form_continuity_against_operator_norms(sys_eps0):
    consts = brezzi_constants(sys_eps0)
    rng = np.random.default_rng(8)
    MV, MQ = sys_eps0.M_V, sys_eps0.M_Q
    for _ in range(10):
        x = rng.standard_normal(sys_eps0.spaces.n_V)
        y = rng.standard_normal(sys_eps0.spaces.n_V)
        q = rng.standard_normal(sys_eps0.spaces.n_Q)
        nx = np.sqrt(x @ MV @ x)
        ny = np.sqrt(y @ MV @ y)
        nq = np.sqrt(q @ MQ @ q)
        assert abs(y @ sys_eps0.A @ x) <= consts.norm_A * nx * ny * (1 + 1e-10)
        assert abs(q @ sys_eps0.B @ x) <= consts.norm_B * nx * nq * (1 + 1e-10)


def test_norm_A_grows_as_kn_shrinks():
    nA = {kn: brezzi_constants(make_system(N=1, eps=0.0, kn=kn)).norm_A for kn in (1.0, 0.1)}
    assert nA[0.1] > nA[1.0]


def test_kernel_invariance_under_rebasing(sys_eps0):
    Z = kernel_basis(sys_eps0)
    rng = np.random.default_rng(3)
    a0_ref, _ = coercivity_constant(sys_eps0, Z)
    for _ in range(2):
        Q, _ = np.linalg.qr(rng.standard_normal((Z.shape[1], Z.shape[1])))
        a0, _ = coercivity_constant(sys_eps0, Z @ Q)
        assert a0 == pytest.approx(a0_ref, rel=1e-9)


def test_solve_zero_data(sys_eps01):
    sol = solve_mixed(sys_eps01)
    assert np.linalg.norm(sol.U) < 1e-12
    assert np.linalg.norm(sol.P) < 1e-12


def test_solve_wall_temperature_bounds():
    system = make_system(N=2, eps=0.1, bdata=BoundaryData(theta_w=np.ones(6)))
    consts = brezzi_constants(system)
    sol = solve_mixed(system, consts)
    assert sol.residual_primal <= 1e-10
    assert sol.residual_constraint <= 1e-10
    assert sol.norm_U > 0
    assert sol.bounds_hold


def test_solve_linearity():
    # constant sources are resolved by the pairing (constants are gradients
    # of degree-N fields), so the constraint load stays consistent
    src = VolumeSources(
        b=lambda q: np.tile([1.0, 0.0, 0.0], (q.shape[0], 1)),
        r_src=lambda q: np.full(q.shape[0], 0.3),
    )
    system = make_system(N=1, eps=0.1, sources=src, bdata=BoundaryData(theta_w=0.5 * np.ones(6)))
    consts = brezzi_constants(system)
    sol1 = solve_mixed(system, consts)
    doubled = copy.copy(system)
    doubled.F = 2.0 * system.F
    doubled.G = 2.0 * system.G
    sol2 = solve_mixed(doubled, consts)
    assert np.linalg.norm(sol2.U - 2 * sol1.U) < 1e-11 * max(np.linalg.norm(sol1.U), 1)
    assert np.linalg.norm(sol2.P - 2 * sol1.P) < 1e-11 * max(np.linalg.norm(sol1.P), 1)


def test_theorem_bounds_random_data(sys_eps01):
    consts = brezzi_constants(sys_eps01)
    rng = np.random.default_rng(17)
    for _ in range(5):
        system = copy.copy(sys_eps01)
        system.F = rng.standard_normal(sys_eps01.spaces.n_V)
        # random constraint load inside range(B), per the solvability theorem
        system.G = sys_eps01.B @ rng.standard_normal(sys_eps01.spaces.n_V)
        sol = solve_mixed(system, consts)
        assert sol.residual_primal <= 1e-10 and sol.residual_constraint <= 1e-10
        assert sol.bounds_hold


def test_solve_rejects_inconsistent_load(sys_eps01):
    rng = np.random.default_rng(23)
    system = copy.copy(sys_eps01)
    system.G = rng.standard_normal(sys_eps01.spaces.n_Q)
    with pytest.raises(ValueError, match="discrete pairing deficient"):
        solve_mixed(system)


def test_limit_zero_solution(sys_eps01):
    res_ns, res_f = limit_consistency(np.zeros(sys_eps01.spaces.n_V), np.zeros(sys_eps01.spaces.n_Q), sys_eps01)
    assert res_ns == 0.0 and res_f == 0.0


def limit_study_data():
    """Through-flow plus top-face heating: both closure signals stay strong
    against the L2-representative noise of u and theta, so the shrinking
    higher-order terms are visible as a trend (diagnostic, not a rate)."""
    return BoundaryData(
        theta_w=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
        u_n_w=np.array([0.3, -0.3, 0.0, 0.0, 0.0, 0.0]),
    )


def test_limit_monotone_in_kn():
    results = []
    for kn in (1.0, 0.3, 0.1):
        system = make_system(N=2, k=2, eps=0.1, kn=kn, bdata=limit_study_data())
        sol = solve_mixed(system)
        results.append(limit_consistency(sol.U, sol.P, system))
    ns = [r[0] for r in results]
    fo = [r[1] for r in results]
    assert ns[0] > ns[1] > ns[2]
    assert fo[0] > fo[1] > fo[2]


def test_limit_manufactured_stokes_closure(sys_eps01):
    # sigma := -2 Kn stf D u inserted directly gives res_NS at rounding level
    sp = sys_eps01.spaces
    sb = sp.scalar
    n = sp.n_scalar
    kn = sys_eps01.params.kn
    P = np.zeros(sp.n_Q)
    u = P[sp.q_blocks["u"]].reshape(3, n)
    u[0] = sb.project(lambda q: q[:, 1] * q[:, 2])
    u[1] = sb.project(lambda q: q[:, 0] ** 2)
    u[2] = sb.project(lambda q: -q[:, 2] * q[:, 0])

    du = np.einsum("iI,kqI->qik", u, sb.dphi)
    stf_du = 0.5 * (du + du.transpose(0, 2, 1))
    stf_du -= (np.einsum("qii->q", du) / 3.0)[:, None, None] * np.eye(3)
    target = -2.0 * kn * np.einsum("qij,aij->qa", stf_du, sp.E)

    U = np.zeros(sp.n_V)
    sig = U[sp.v_blocks["sigma"]].reshape(5, n)
    mass = kron_gram(sb, "mmm")
    for a in range(5):
        sig[a] = np.linalg.solve(mass, sb.phi.T @ (sb.weights * target[:, a]))
    res_ns, _ = limit_consistency(U, P, sys_eps01)
    assert res_ns <= 1e-12


def test_bc_residuals_finite_on_solution():
    # on a load that drives every field (on theta_w = 1 alone the solution is
    # theta = 1 and the residuals are rounding noise), every wall residual is
    # well above rounding and matches the point-by-point oracle
    bdata = limit_study_data()
    for N, pairing in ((2, "equal"), (1, "enriched")):
        system = make_system(N=N, eps=0.1, bdata=bdata, pairing=pairing)
        sol = solve_mixed(system)
        res = bc_residuals(sol.U, sol.P, system.spaces, system.params, bdata)
        ref = wall_residuals_oracle(sol.U, sol.P, system.spaces, system.params, bdata)
        assert list(res) == list(ref)
        for key, val in res.items():
            assert np.isfinite(val) and val > 1e-6, (pairing, key)
            assert val == pytest.approx(ref[key], rel=1e-12, abs=0), (pairing, key)


def test_kernel_basis_rejects_bad_tolerance(sys_eps0):
    with pytest.raises(ValueError, match="tol"):
        kernel_basis(sys_eps0, tol=0.0)


def test_pipeline_with_subdivisions():
    for pairing in PAIRINGS:
        system = make_system(
            N=1, k=2, eps=0.1, bdata=BoundaryData(theta_w=np.ones(6)), pairing=pairing
        )
        consts = brezzi_constants(system)
        assert consts.alpha0 > 0 and consts.k0 > 0
        sol = solve_mixed(system, consts)
        assert sol.residual_primal <= 1e-10 and sol.residual_constraint <= 1e-10
        assert sol.bounds_hold


def test_solve_hydrostatic_exact_solution():
    # a potential body force b = grad(z) is balanced by pressure alone:
    # the exact solution has sigma = s = u = theta = 0 and p = z - 1/2,
    # which lies in the discrete space, so the solve must reproduce it
    # to solver precision (validates load and constraint-block signs).
    # (u, theta) is measured in the Q-norm that the stability estimate
    # bounds; its coefficient 2-norm depends on the basis scaling.
    src = VolumeSources(b=lambda q: np.tile([0.0, 0.0, 1.0], (q.shape[0], 1)))
    for pairing in PAIRINGS:
        for k in (1, 2):
            system = make_system(N=2, k=k, eps=0.0, sources=src, pairing=pairing)
            sol = solve_mixed(system)
            sp = system.spaces
            sig, s, p = sp.split_V(sol.U)
            assert np.max(np.abs(sig)) < 1e-11
            assert np.max(np.abs(s)) < 1e-11
            assert sol.norm_P < 1e-11
            expected = sp.scalar_pq.project(lambda q: q[:, 2] - 0.5)
            assert np.max(np.abs(p - expected)) < 1e-10


def test_infsup_matches_direct_sup_computation(sys_eps0):
    # for random multipliers off the cokernel, the normalized sup over V
    # reproduces at least the measured inf-sup constant, and its minimum
    # over many draws stays close to it
    k0, _ = infsup_constant(sys_eps0)
    Lv = sla.cholesky(sys_eps0.M_V, lower=True)
    Y = cokernel_basis(sys_eps0)
    # remove the cokernel component in the M_Q inner product, which is the
    # orthogonality the quotient-norm bound refers to
    MQ = sys_eps0.M_Q
    proj = Y @ np.linalg.solve(Y.T @ MQ @ Y, Y.T @ MQ)
    rng = np.random.default_rng(31)
    sups = []
    for _ in range(50):
        q = rng.standard_normal(sys_eps0.spaces.n_Q)
        q -= proj @ q
        nq = np.sqrt(q @ MQ @ q)
        sup = np.linalg.norm(sla.solve_triangular(Lv, sys_eps0.B.T @ q, lower=True))
        sups.append(sup / nq)
    assert min(sups) >= k0 - 1e-12


def test_kernel_elements_respect_coercivity_constant(sys_eps0):
    Z = kernel_basis(sys_eps0)
    alpha0, _ = coercivity_constant(sys_eps0, Z)
    rng = np.random.default_rng(37)
    for _ in range(20):
        z = Z @ rng.standard_normal(Z.shape[1])
        quad = z @ sys_eps0.A @ z
        assert quad >= alpha0 * (z @ sys_eps0.M_V @ z) * (1 - 1e-10)


def seeded_walls(rng):
    return BoundaryData(*(0.5 * rng.standard_normal((5, 6))))


def test_assembled_matrices_are_shared_and_read_only():
    sp = build_spaces(1, 1, "full")
    params = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.1)
    first = assemble_system(sp, params)
    second = assemble_system(sp, params, None, BoundaryData(theta_w=np.ones(6)))
    for name in ("A", "B", "M_V", "M_Q"):
        assert getattr(second, name) is getattr(first, name)
    other = assemble_system(sp, ModelParams(kn=0.5, chi_tilde=1.0, epsilon_w=0.1))
    # A depends on the parameters; B, M_V and M_Q belong to the spaces
    assert other.A is not first.A and other.B is first.B
    with pytest.raises(ValueError, match="read-only"):
        first.A[0, 0] = 1.0


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_shared_factors_match_an_uncached_solve_bitwise(pairing):
    # the equal pairing solves on the quotient by ker B^T, the enriched one
    # on the full range; a new operator and structure on the same blocks
    # bypass the shared operator's factors
    sp = build_spaces(1, 1, "full", pairing)
    params = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.1)
    base = assemble_system(sp, params)
    consts = brezzi_constants(base)
    assert (consts.dim_kerBT > 0) == (pairing == "equal")
    rng = np.random.default_rng(41)
    for _ in range(5):
        system = assemble_system(sp, params, None, seeded_walls(rng))
        copied = on_edited_blocks(system)
        shared = solve_mixed(system, consts)
        factors = base.operator.factors
        assert factors is not None
        fresh = solve_mixed(copied, consts)
        assert base.operator.factors is factors and copied.operator.factors is not factors
        assert np.array_equal(shared.U, fresh.U) and np.array_equal(shared.P, fresh.P)
        for name in ("residual_primal", "residual_constraint", "norm_U", "norm_P", "bound_U", "bound_P"):
            assert getattr(shared, name) == getattr(fresh, name)


def test_a_systems_matrices_cannot_be_replaced(sys_eps0):
    # the matrices are the operator's, read-only: a hand edit fails loudly
    with pytest.raises(TypeError):
        dataclasses.replace(sys_eps0, A=np.zeros_like(sys_eps0.A))
    system = copy.copy(sys_eps0)
    with pytest.raises(AttributeError):
        system.B = np.zeros_like(sys_eps0.B)


@pytest.fixture
def assembled(monkeypatch):
    """Counts of the SaddleStructure and SaddleOperator assemblies made in the test."""
    counts = {"structure": 0, "operator": 0}
    for name, cls in (("structure", SaddleStructure), ("operator", SaddleOperator)):

        def counting(*args, name=name, assemble=cls.assemble):
            counts[name] += 1
            return assemble(*args)

        monkeypatch.setattr(cls, "assemble", staticmethod(counting))
    return counts


def test_spaces_keep_their_structure_and_operators(assembled):
    # the spaces own what is assembled on them: callers that keep no system
    # alive still assemble the structure once and the operator once per params
    sp = build_spaces(1, 1, "zero_mean")
    params = ModelParams()
    rng = np.random.default_rng(7)
    coercivity_chain_check("heat", rng.standard_normal((2, 3, sp.n_scalar)), sp, params)
    coercivity_chain_check("stress", [(rng.standard_normal((5, sp.n_scalar)), rng.standard_normal(sp.n_p))], sp, params)
    assert assembled == {"structure": 1, "operator": 1}
    assert list(sp.operators) == [params] and sp.operators[params].structure is sp.structure


def test_constants_on_a_dropped_system_serve_later_loads(assembled):
    # constants on a system that is then dropped, then loads on the same
    # spaces: the solves read the structure, the operator and the whitened
    # SVDs that the constants made, on the 8 parts (one per orbit and subproblem)
    sp = build_spaces(2, 1, "zero_mean")
    params = ModelParams()
    consts = brezzi_constants(assemble_system(sp, params))
    parts = sp.structure.parts
    assert len(parts) == 8
    svds = [p.__dict__.get("whitened_svd") for p in parts]
    assert all(svd is not None for svd in svds)
    rng = np.random.default_rng(54)
    for _ in range(3):
        assert solve_mixed(assemble_system(sp, params, None, seeded_walls(rng)), consts).bounds_hold
    assert assembled == {"structure": 1, "operator": 1}
    assert [p.__dict__.get("whitened_svd") for p in parts] == svds


def test_dropped_spaces_free_their_structure_without_gc():
    # ownership runs one way (spaces -> structure and operators -> parts and
    # factors), so reference counting frees them with the spaces: no cycle
    # waits for the collector
    gc.disable()
    try:
        sp = build_spaces(1, 1, "full")
        system = assemble_system(sp, ModelParams(1.0, 1.0, 0.1), None, BoundaryData(theta_w=np.ones(6)))
        solve_mixed(system, brezzi_constants(system))
        refs = [weakref.ref(x) for x in (sp, sp.structure, system.operator, system.B)]
        del sp, system
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_solve_rejects_singular_saddle_matrix(sys_eps0):
    system = on_edited_blocks(sys_eps0, part=lambda p: {"B": np.zeros_like(p.B)}, sector=np.zeros_like)
    system.G = np.zeros_like(sys_eps0.G)
    with pytest.raises(ValueError, match="singular saddle matrix"):
        solve_mixed(system)


def test_solve_warns_on_ill_conditioned_saddle_matrix(sys_eps0):
    # with B = 0 each sector's saddle matrix is its block of A; diagonal
    # blocks spanning 20 decades are nonsingular but beyond double precision
    system = on_edited_blocks(
        sys_eps0,
        part=lambda p: {"B": np.zeros_like(p.B)},
        sector=lambda S: np.diag(np.logspace(0.0, -20.0, S.shape[0])),
    )
    system.G = np.zeros_like(sys_eps0.G)
    with pytest.warns(sla.LinAlgWarning, match="ill-conditioned"):
        solve_mixed(system)


def with_ids(cases):
    """pytest params whose id joins the values, and the pressure mode where one is given."""
    return [pytest.param(*case, id="-".join(str(v) for v in case if v is not None)) for case in cases]


@pytest.mark.parametrize(
    "pairing,N,k,eps,mode",
    with_ids(
        [
            ("equal", 2, 1, 0.0, None),
            ("equal", 3, 1, 0.0, None),
            ("equal", 2, 2, 0.0, None),
            ("equal", 2, 1, 0.1, None),
            ("equal", 3, 1, 0.1, None),
            ("enriched", 1, 1, 0.0, None),
            ("enriched", 1, 1, 0.1, None),
            ("enriched", 1, 2, 0.0, None),
            ("enriched", 1, 2, 0.1, None),
            # a fully even pressure class of one function: the zero-mean
            # Householder inside it must not divide 0 by 0
            ("enriched", 1, 1, 0.1, "zero_mean"),
            ("equal", 1, 3, 0.05, "zero_mean"),
            # full pressure at epsilon_w = 0: alpha0 = 0 on a singular bordered matrix
            ("equal", 1, 1, 0.0, "full"),
            ("equal", 2, 1, 0.0, "full"),
        ]
    ),
)
def test_constants_match_dense_oracle(pairing, N, k, eps, mode):
    system = make_system(N=N, k=k, eps=eps, pairing=pairing, mode=mode)
    consts = brezzi_constants(system)
    dense = dense_brezzi_constants(system)
    # the absolute part only matters where alpha0 is 0 and the dense pencil returns roundoff
    assert consts.alpha0 == pytest.approx(dense["alpha0"], rel=1e-10, abs=1e-12)
    assert consts.norm_A == pytest.approx(dense["norm_A"], rel=1e-10)
    # per-part SVDs against one whole-matrix SVD: equal up to rounding
    assert consts.k0 == pytest.approx(dense["k0"], rel=1e-12)
    assert consts.norm_B == pytest.approx(dense["norm_B"], rel=1e-12)
    assert consts.dim_kerB == dense["dim_kerB"] and consts.dim_kerBT == dense["dim_kerBT"]


@pytest.mark.parametrize(
    "pairing,N,k,cokernels",
    [
        ("equal", 2, 1, (6, 1)),
        ("equal", 3, 1, (6, 1)),
        ("equal", 2, 2, (6, 1)),
        ("enriched", 1, 1, (0, 0)),
        ("enriched", 1, 2, (0, 0)),
    ],
)
def test_cokernel_splits_between_velocity_and_temperature(pairing, N, k, cokernels):
    # the equal pairing's 7-dimensional cokernel, which first derivatives
    # missing the top corner monomial cause, lies six dimensions against u
    # (momentum parts) and one against theta (energy parts), summed over
    # the 8 mirror sectors, each part once per sector of its orbit; enriched
    # has none
    system = make_system(N=N, k=k, pairing=pairing)
    structure = system.operator.structure
    assert len(structure.parts) == 8
    split = [0, 0]
    for i, (p, r) in enumerate(zip(structure.parts, structure.ranks)):
        split[i % 2] += len(structure.V.orbits[i // 2]) * (p.B.shape[0] - r)
    assert tuple(split) == cokernels
    assert brezzi_constants(system).dim_kerBT == sum(cokernels)


def test_rank_cutoff_is_relative_to_the_whole_B(sys_eps0):
    # energy blocks 1e-12 times smaller lie wholly below the whole-B
    # cutoff, though a cutoff relative to its own part would keep its rank
    sp = sys_eps0.spaces
    energy = {id(p) for p in sys_eps0.operator.structure.parts[1::2]}
    scaled = on_edited_blocks(sys_eps0, part=lambda p: {"B": 1e-12 * p.B} if id(p) in energy else {})
    consts = brezzi_constants(scaled)
    dense = dense_brezzi_constants(scaled)
    assert consts.dim_kerBT == dense["dim_kerBT"] == 6 + sp.scalar_pq.n
    assert consts.dim_kerB == dense["dim_kerB"]
    assert consts.alpha0 == pytest.approx(dense["alpha0"], rel=1e-10)


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_alpha0_is_zero_on_a_singular_bordered_matrix(pairing):
    # full pressure at epsilon_w = 0: a pressure direction in ker B on
    # which the symmetric form vanishes, so the coercivity constant is 0
    sp = build_spaces(1, 1, "full", pairing)
    system = assemble_system(sp, ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.0))
    assert abs(dense_brezzi_constants(system)["alpha0"]) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert brezzi_constants(system).alpha0 == 0.0


def test_constants_are_deterministic_across_arpack_calls():
    first = brezzi_constants(make_system(N=2, k=1, eps=0.1))
    # ARPACK keeps the state of its default start vector between calls
    spla.eigsh(np.diag(np.arange(1.0, 41.0)), k=2)
    second = brezzi_constants(make_system(N=2, k=1, eps=0.1))
    assert first == second


def test_kn_systems_share_one_structure():
    sp = build_spaces(1, 1, "full")
    systems = [assemble_system(sp, ModelParams(kn, 1.0, 0.1)) for kn in (1.0, 0.3, 0.1)]
    structure = systems[0].operator.structure
    assert len(structure.parts) == 8
    svds = [part.whitened_svd for part in structure.parts]
    for system in systems:
        solve_mixed(system)
        assert system.operator.structure is structure
        assert system.operator.factors is not None and system.operator.A is system.A
        assert all(part.whitened_svd is svd for part, svd in zip(structure.parts, svds))
        for name in ("B", "M_V", "M_Q"):
            assert getattr(system, name) is getattr(structure, name)
    assert len({id(s.A) for s in systems}) == 3
    # the spaces keep the structure and one operator per params, with no system alive
    operators = {s.params: s.operator for s in systems}
    del systems, system
    assert sp.structure is structure and sp.operators == operators


def random_consistent_load(system, seed, B=None):
    """A copy of the system with a random F and a G inside range(B) (default: the system's B)."""
    rng = np.random.default_rng(seed)
    loaded = copy.copy(system)
    loaded.F = rng.standard_normal(system.spaces.n_V)
    loaded.G = (system.B if B is None else B) @ rng.standard_normal(system.spaces.n_V)
    return loaded


def assert_matches_dense_solution(sol, system):
    U, P = dense_mixed_solution(system)
    assert np.linalg.norm(sol.U - U) <= 1e-10 * np.linalg.norm(U)
    assert np.linalg.norm(sol.P - P) <= 1e-10 * np.linalg.norm(P)


def dense_verification(U, P, tab, consts):
    """The verification outputs of (U, P) from the dense matrices of tab: |U|_V, |P|_Q, both
    residuals relative to max(|load|, 1), and the stability bounds with the dual norms
    sqrt(F^T M_V^-1 F) and sqrt(G^T M_Q^-1 G)."""
    F, G = tab.F, tab.G
    f_dual, g_dual = (np.sqrt(x @ sla.solve(M, x, assume_a="pos")) for x, M in ((F, tab.M_V), (G, tab.M_Q)))
    a0, k0, na = consts.alpha0, consts.k0, consts.norm_A
    return {
        "norm_U": np.sqrt(U @ tab.M_V @ U),
        "norm_P": np.sqrt(P @ tab.M_Q @ P),
        "residual_primal": np.linalg.norm(tab.A @ U + tab.B.T @ P - F) / max(np.linalg.norm(F), 1.0),
        "residual_constraint": np.linalg.norm(tab.B @ U - G) / max(np.linalg.norm(G), 1.0),
        "bound_U": f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual,
        "bound_P": (1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual,
    }


@pytest.mark.parametrize(
    "eps,N,k,pairing,mode",
    with_ids(
        [(eps, N, k, pairing, None) for eps in (0.0, 0.1) for N, k in ((1, 1), (2, 1), (1, 2)) for pairing in PAIRINGS]
        + [(0.1, 1, 1, "enriched", "zero_mean"), (0.05, 1, 3, "equal", "zero_mean")]
    ),
)
def test_solve_matches_dense_oracle(eps, N, k, pairing, mode):
    # the per-orbit solves against one dense solve of the whole saddle
    # matrix, with the minimal M_Q-norm pressure on the equal pairing. The
    # dense matrices are the tabulated oracle's, not the library's, which
    # come through the same carry as the solve. Full pressure at
    # epsilon_w = 0 is left out: its whole saddle matrix is singular, so
    # neither solve has an answer to compare
    system = make_system(N=N, k=k, eps=eps, pairing=pairing, mode=mode)
    mats = oracle_forms(system.spaces, system.params)
    consts = brezzi_constants(system)
    for seed in (51, 52):
        loaded = random_consistent_load(system, seed, mats["B"])
        tabulated = types.SimpleNamespace(A=mats["A"], B=mats["B"], M_V=mats["MV"], M_Q=mats["MQ"], F=loaded.F, G=loaded.G)
        sol = solve_mixed(loaded, consts)
        assert_matches_dense_solution(sol, tabulated)
        # the norms and bounds the solve verifies, against the tabulated matrices; the
        # residuals of an exact solve are rounding, so they agree to 1e-12 of the load
        dense = dense_verification(sol.U, sol.P, tabulated, consts)
        for name in ("norm_U", "norm_P", "bound_U", "bound_P"):
            assert getattr(sol, name) == pytest.approx(dense[name], rel=1e-12), name
        for name in ("residual_primal", "residual_constraint"):
            assert abs(getattr(sol, name) - dense[name]) <= 1e-12, name


@pytest.mark.parametrize(
    "eps,N,k,pairing",
    with_ids([(eps, N, k, pairing) for eps in (0.0, 0.1) for N, k in ((1, 1), (2, 1)) for pairing in PAIRINGS]),
)
def test_residuals_of_an_inexact_solve_match_dense_oracle(monkeypatch, eps, N, k, pairing):
    # each back-substitution is perturbed by 1e-3 of its size, so the solve
    # returns (U, P) with residuals far above rounding, which the per-orbit
    # pass must measure as the tabulated matrices do, to 1e-12 relative
    system = make_system(N=N, k=k, eps=eps, pairing=pairing)
    mats = oracle_forms(system.spaces, system.params)
    consts = brezzi_constants(system)
    rng = np.random.default_rng(55)
    getrs = saddlepoint._getrs

    def perturbed(lu, piv, b, **kw):
        x, info = getrs(lu, piv, b, **kw)
        return x + 1e-3 * np.abs(x).max() * rng.standard_normal(x.shape), info

    monkeypatch.setattr(saddlepoint, "_getrs", perturbed)
    loaded = random_consistent_load(system, 56, mats["B"])
    tabulated = types.SimpleNamespace(A=mats["A"], B=mats["B"], M_V=mats["MV"], M_Q=mats["MQ"], F=loaded.F, G=loaded.G)
    sol = solve_mixed(loaded, consts)
    dense = dense_verification(sol.U, sol.P, tabulated, consts)
    assert min(sol.residual_primal, sol.residual_constraint) > 1e-6
    for name in ("residual_primal", "residual_constraint", "norm_U", "norm_P"):
        assert getattr(sol, name) == pytest.approx(dense[name], rel=1e-12), name


def test_primal_residual_is_relative_to_at_least_one():
    # a load driven by G alone with F of rounding size: both residual rows
    # are relative to max(|load|, 1), so a tiny F does not inflate the
    # primal residual (relative to |F| = 1e-20 it read about 5e3)
    src = VolumeSources(b=lambda q: np.stack([q[:, 1], q[:, 2] ** 2, q[:, 0]], axis=1))
    system = make_system(N=2, eps=0.1, sources=src, pairing="enriched", mode="full")
    for scale in (0.0, 1e-20):
        system.F = np.full(system.spaces.n_V, scale)
        sol = solve_mixed(system)
        assert sol.norm_U > 1e-3
        assert sol.residual_primal <= 1e-12 and sol.residual_constraint <= 1e-12


def test_each_part_and_sector_is_factored_once_for_every_load(monkeypatch):
    # alpha0 factors each of the 8 parts' bordered matrices once and the
    # first solve each of the 4 orbits' saddle matrices once; later loads
    # factor nothing, and no LU is larger than the largest orbit's saddle
    # matrix, which is one sector's
    sizes = []

    def counting_lu(K):
        sizes.append(K.shape[0])
        return lu_in_place(K)

    lu_in_place = saddlepoint._lu_in_place
    monkeypatch.setattr(saddlepoint, "_lu_in_place", counting_lu)
    sp = build_spaces(2, 1, "zero_mean")
    params = ModelParams()
    system = assemble_system(sp, params)
    structure = system.operator.structure
    V, ranks = structure.V, structure.ranks
    orbit_sizes = [V.parts[2 * o + 1].stop + ranks[2 * o] + ranks[2 * o + 1] for o in range(4)]
    consts = brezzi_constants(system)
    assert sizes == [p.cholesky[0].shape[0] + r for p, r in zip(structure.parts, ranks)]
    solve_mixed(system, consts)
    assert sizes[8:] == orbit_sizes and len(system.operator.factors) == 4
    assert max(sizes) == max(orbit_sizes) < sp.n_V / 4
    rng = np.random.default_rng(53)
    for _ in range(3):
        sol = solve_mixed(assemble_system(sp, params, None, seeded_walls(rng)), consts)
        assert sol.bounds_hold
    assert len(sizes) == 12


def asymmetric_sources():
    """Volume sources with no symmetry under the swaps of the cube's axes."""
    return VolumeSources(
        m_src=lambda q: q[:, 0] * q[:, 1] ** 2 - 0.3 * q[:, 2],
        b=lambda q: np.stack([q[:, 1] * q[:, 2] ** 2, np.sin(q[:, 0]) + q[:, 2], q[:, 0] ** 2 - q[:, 1]], axis=1),
        r_src=lambda q: q[:, 2] ** 3 + 0.5 * q[:, 0] * q[:, 1],
    )


@pytest.mark.parametrize("pairing,N,k", [("equal", 2, 1), ("enriched", 1, 2)])
def test_sectors_solved_through_their_representative_match_the_dense_oracles(pairing, N, k):
    # seeded walls plus sources that no axis swap maps to themselves, so
    # sectors 1, 2 and 4 (and 3, 5 and 6) carry different loads, solved as
    # the columns of one load on their orbit's one LU. The solve
    # matches one dense solve of the whole saddle matrix (on the quotient by
    # ker B^T for equal, whose load is first made consistent), and the
    # constants the dense oracles
    rng = np.random.default_rng(61)
    system = make_system(N=N, k=k, eps=0.1, pairing=pairing, sources=asymmetric_sources(), bdata=seeded_walls(rng))
    if pairing == "equal":
        Y = cokernel_basis(system)
        system.G = system.G - Y @ (Y.T @ system.G)
    V = system.operator.structure.V
    carried = V.to_sectors(system.F)
    loads = [carried[V.sectors[s]] for s in (1, 2, 4)] + [carried[V.sectors[s]] for s in (3, 5, 6)]
    for a, b in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)):
        assert np.linalg.norm(loads[a] - loads[b]) > 1e-3 * np.linalg.norm(loads[a])
    # the dense oracles read the tabulated matrices, not the library's carried blocks
    mats = oracle_forms(system.spaces, system.params)
    tabulated = types.SimpleNamespace(A=mats["A"], B=mats["B"], M_V=mats["MV"], M_Q=mats["MQ"], F=system.F, G=system.G)
    consts = brezzi_constants(system)
    dense = dense_brezzi_constants(tabulated)
    for name in ("alpha0", "k0", "norm_A", "norm_B"):
        assert getattr(consts, name) == pytest.approx(dense[name], rel=1e-12), name
    assert consts.dim_kerB == dense["dim_kerB"] and consts.dim_kerBT == dense["dim_kerBT"] == (7 if pairing == "equal" else 0)
    sol = solve_mixed(system, consts)
    assert sol.residual_primal <= 1e-12 and sol.residual_constraint <= 1e-12 and sol.bounds_hold
    assert_matches_dense_solution(sol, tabulated)
    assert len(system.operator.factors) == 4


def test_axis_permuted_sectors_agree_to_rounding():
    # sectors 1, 2 and 4 (one odd axis each) are images of each other under
    # the cube's axis permutations, so their energy parts have the same
    # whitened singular values in exact arithmetic; blocks built from shared
    # 1D factors keep them equal to 1e-12 of the largest at equal (5,1). Each
    # sector is assembled on its own, in the layout without the axis swaps
    spaces = build_spaces(5, 1, "zero_mean")
    V, Q = (Sectors(S.fields) for S in spaces.sectors)
    blocks = (
        _sector_assemble(_B_terms(spaces), Q, V, {}, by_part=True),
        _sector_assemble(_norm_terms(len(V.fields), h1=True), V, V, {}, by_part=True),
        _sector_assemble(_norm_terms(len(Q.fields), h1=False), Q, Q, {}, by_part=True),
    )
    parts = [SaddlePart.factor(*(b[2 * s + 1] for b in blocks)) for s in (1, 2, 4)]
    assert len({id(p.B) for p in parts}) == 3
    svals = [p.whitened_svd[1] for p in parts]
    top = max(s[0] for s in svals)
    assert max(np.abs(a - b).max() for a in svals for b in svals) <= 1e-12 * top


def test_ritz_step_is_eigh_tridiagonal_bit_for_bit():
    # every Lanczos step takes its Ritz pair from LAPACK stebz and stein directly; the
    # value and the eigenvector are those of scipy's wrapper, bit for bit, at every size,
    # on the views of preallocated arrays that the iteration passes
    rng = np.random.default_rng(25)
    for n in range(1, 61):
        for scale in (1e-3, 1.0, 4.0):
            alpha, beta = np.empty(64), np.empty(64)
            alpha[:n] = scale * (rng.random(n) + rng.standard_normal(n) ** 2)
            beta[: n - 1] = scale * rng.random(n - 1) * rng.choice([1.0, -1.0], n - 1)
            d, e = alpha[:n], beta[: n - 1]
            theta, s = saddlepoint._top_ritz(d, e)
            w, v = sla.eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))
            assert np.float64(theta).tobytes() == w[0].tobytes(), (n, scale)
            assert s.shape == (n,) and s.tobytes() == np.ascontiguousarray(v[:, 0]).tobytes(), (n, scale)


@pytest.mark.parametrize("bad_call", [1, 3])
def test_lanczos_raises_at_once_on_a_non_finite_product(bad_call):
    # a NaN from the operator raises ValueError at the step it arrives, as
    # eigh_tridiagonal's finiteness check did, not after 500 steps
    calls = []

    def apply(q):
        calls.append(1)
        return np.full(q.size, np.nan) if len(calls) == bad_call else (1.0 + np.arange(q.size)) * q

    with pytest.raises(ValueError, match="non-finite"):
        saddlepoint._lanczos_max(apply, 40)
    assert len(calls) == bad_call


def test_constants_call_neither_eigh_tridiagonal_nor_cholesky(monkeypatch):
    # the Ritz steps and the parts' factors call LAPACK directly; scipy's wrappers
    # are never reached, and the constants are those of an unpatched run
    ref = brezzi_constants(make_system(N=2))

    def refuse(*args, **kwargs):
        raise AssertionError("scipy wrapper called")

    monkeypatch.setattr(sla, "eigh_tridiagonal", refuse)
    monkeypatch.setattr(sla, "cholesky", refuse)
    assert brezzi_constants(make_system(N=2)) == ref
