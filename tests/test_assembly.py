import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from r13verify import assembly
from r13verify.assembly import (
    BoundaryData,
    ModelParams,
    SaddlePart,
    VolumeSources,
    _norm_terms,
    _sector_assemble,
    assemble_form,
    assemble_load,
    assemble_system,
    bc_residuals,
    compute_closures,
)
from r13verify.spaces import PAIRINGS, _swap_bits, build_spaces
from r13verify.tensors import project2

from helpers import dense_Cp, dense_korn_grams, mirror_maps, oracle_forms, permutation_maps

PARAMS = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.1)
PARAMS0 = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.0)


@pytest.fixture(scope="module")
def sp():
    return build_spaces(2, 1, "full")


@pytest.fixture(scope="module")
def sp0():
    return build_spaces(2, 1, "zero_mean")


def rand_blocks(spaces, seed=0):
    rng = np.random.default_rng(seed)
    n = spaces.n_scalar
    return (
        rng.standard_normal((5, n)),
        rng.standard_normal((3, n)),
        rng.standard_normal(n),
    )


def field_data(spaces, sig, s):
    """Pointwise values and gradients of the fields, independent of assembly."""
    sb = spaces.scalar
    E = spaces.E
    s_vals = np.einsum("iI,qI->qi", s, sb.phi)
    ds = np.einsum("iI,kqI->qik", s, sb.dphi)
    sig_scalar = np.einsum("aI,qI->qa", sig, sb.phi)
    sig_vals = np.einsum("qa,aij->qij", sig_scalar, E)
    dsig = np.einsum("aI,kqI->qak", sig, sb.dphi)
    dsig = np.einsum("qak,aij->qijk", dsig, E)
    return s_vals, ds, sig_vals, dsig


def stf3_pointwise(T):
    from r13verify.tensors import projection_matrix3

    P3 = projection_matrix3("Stf", 3)
    nq = T.shape[0]
    return (T.reshape(nq, 27) @ P3.T).reshape(nq, 3, 3, 3)


def test_form_a_matches_direct_quadrature(sp):
    sig, s, _ = rand_blocks(sp, 1)
    sig2, r, _ = rand_blocks(sp, 2)
    A = assemble_form("a", sp, PARAMS)
    quad = s.ravel() @ A @ r.ravel()

    sb = sp.scalar
    kn, chi = PARAMS.kn, PARAMS.chi_tilde
    s_vals, ds, _, _ = field_data(sp, sig, s)
    r_vals, dr, _, _ = field_data(sp, sig2, r)
    sym_s = 0.5 * (ds + ds.transpose(0, 2, 1))
    sym_r = 0.5 * (dr + dr.transpose(0, 2, 1))
    w = sb.weights
    direct = (24.0 / 25.0) * kn * np.sum(w * np.einsum("qik,qik->q", sym_s, sym_r))
    direct += (12.0 / 25.0) * kn * np.sum(
        w * np.einsum("qii->q", ds) * np.einsum("qii->q", dr)
    )
    direct += (4.0 / 15.0) / kn * np.sum(w * np.einsum("qi,qi->q", s_vals, r_vals))
    for f, fd in enumerate(sb.faces):
        sv = np.einsum("iI,qI->qi", s, fd.phi)
        rv = np.einsum("iI,qI->qi", r, fd.phi)
        nvec, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2
        direct += 0.5 / chi * np.sum(fd.weights * (sv @ nvec) * (rv @ nvec))
        for t in (t1, t2):
            direct += (12.0 / 25.0) * chi * np.sum(fd.weights * (sv @ t) * (rv @ t))
    assert quad == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_form_c_matches_direct_quadrature(sp):
    sig, s, _ = rand_blocks(sp, 3)
    _, r, _ = rand_blocks(sp, 4)
    C = assemble_form("c", sp, PARAMS)
    quad = r.ravel() @ C @ sig.ravel()

    sb = sp.scalar
    _, dr, sig_vals, _ = field_data(sp, sig, r)
    direct = (2.0 / 5.0) * np.sum(sb.weights * np.einsum("qij,qij->q", sig_vals, dr))
    for f, fd in enumerate(sb.faces):
        rv = np.einsum("iI,qI->qi", r, fd.phi)
        sg = np.einsum("aI,qI->qa", sig, fd.phi)
        sg = np.einsum("qa,aij->qij", sg, sp.E)
        nvec, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2
        s_nn = np.einsum("qij,i,j->q", sg, nvec, nvec)
        direct -= (3.0 / 20.0) * np.sum(fd.weights * s_nn * (rv @ nvec))
        for t in (t1, t2):
            s_nt = np.einsum("qij,i,j->q", sg, nvec, t)
            direct -= (1.0 / 5.0) * np.sum(fd.weights * s_nt * (rv @ t))
    assert quad == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_form_d_matches_direct_quadrature(sp):
    sig, _, _ = rand_blocks(sp, 5)
    psi, _, _ = rand_blocks(sp, 6)
    D = assemble_form("d", sp, PARAMS)
    quad = sig.ravel() @ D @ psi.ravel()

    sb = sp.scalar
    kn, chi, eps = PARAMS.kn, PARAMS.chi_tilde, PARAMS.epsilon_w
    _, _, sig_vals, dsig = field_data(sp, sig, np.zeros((3, sp.n_scalar)))
    _, _, psi_vals, dpsi = field_data(sp, psi, np.zeros((3, sp.n_scalar)))
    stf_dsig = stf3_pointwise(dsig)
    stf_dpsi = stf3_pointwise(dpsi)
    w = sb.weights
    direct = kn * np.sum(w * np.einsum("qijk,qijk->q", stf_dsig, stf_dpsi))
    direct += 0.5 / kn * np.sum(w * np.einsum("qij,qij->q", sig_vals, psi_vals))
    for f, fd in enumerate(sb.faces):
        sg = np.einsum("qa,aij->qij", np.einsum("aI,qI->qa", sig, fd.phi), sp.E)
        pg = np.einsum("qa,aij->qij", np.einsum("aI,qI->qa", psi, fd.phi), sp.E)
        nvec, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2

        def comp(T, x, y):
            return np.einsum("qij,i,j->q", T, x, y)

        wq = fd.weights
        direct += (9.0 / 8.0) * chi * np.sum(wq * comp(sg, nvec, nvec) * comp(pg, nvec, nvec))
        direct += chi * np.sum(
            wq
            * (comp(sg, t1, t1) + 0.5 * comp(sg, nvec, nvec))
            * (comp(pg, t1, t1) + 0.5 * comp(pg, nvec, nvec))
        )
        direct += chi * np.sum(wq * comp(sg, t1, t2) * comp(pg, t1, t2))
        for t in (t1, t2):
            direct += (1.0 / chi) * np.sum(wq * comp(sg, nvec, t) * comp(pg, nvec, t))
        direct += eps * chi * np.sum(wq * comp(sg, nvec, nvec) * comp(pg, nvec, nvec))
    assert quad == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_forms_b_e_g_match_direct_quadrature(sp):
    sig, s, p = rand_blocks(sp, 7)
    _, v, th = rand_blocks(sp, 8)
    sb = sp.scalar
    w = sb.weights

    bmat = assemble_form("b", sp, PARAMS)
    ds = np.einsum("iI,kqI->qik", s, sb.dphi)
    th_vals = sb.phi @ th
    direct_b = np.sum(w * th_vals * np.einsum("qii->q", ds))
    assert th @ bmat @ s.ravel() == pytest.approx(direct_b, rel=1e-12, abs=1e-12)

    emat = assemble_form("e", sp, PARAMS)
    _, _, _, dsig = field_data(sp, sig, s)
    div_sig = np.einsum("qijj->qi", dsig)
    v_vals = np.einsum("iI,qI->qi", v, sb.phi)
    direct_e = np.sum(w * np.einsum("qi,qi->q", div_sig, v_vals))
    assert v.ravel() @ emat @ sig.ravel() == pytest.approx(direct_e, rel=1e-12, abs=1e-12)

    gmat = assemble_form("g", sp, PARAMS)
    grad_p = np.einsum("I,kqI->qk", p, sb.dphi)
    direct_g = np.sum(w * np.einsum("qi,qi->q", v_vals, grad_p))
    # full pressure mode: constrained coords are the raw coefficients
    assert p @ gmat @ v.ravel() == pytest.approx(direct_g, rel=1e-12, abs=1e-12)


def test_skew_identity(sp):
    A = assemble_form("A", sp, PARAMS)
    C = assemble_form("c", sp, PARAMS)
    S = A - A.T
    vb = sp.v_blocks
    assert_allclose(S[vb["sigma"], vb["s"]], 2.0 * C.T, atol=1e-12)
    assert_allclose(S[vb["s"], vb["sigma"]], -2.0 * C, atol=1e-12)
    assert_allclose(S[vb["sigma"], vb["sigma"]], 0.0, atol=1e-12)
    assert_allclose(S[vb["s"], vb["s"]], 0.0, atol=1e-12)
    assert_allclose(S[vb["p"], :], 0.0, atol=1e-12)
    assert_allclose(S[:, vb["p"]], 0.0, atol=1e-12)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_assembled_A_is_exactly_symmetric_per_subproblem(pairing, eps):
    # each subproblem's diagonal block equals its transpose to the bit, and
    # the blocks between them are exact negative transposes, so the
    # symmetric part of A equals A on each diagonal block
    spaces = build_spaces(2, 1, "full", pairing)
    A = assemble_form("A", spaces, ModelParams(kn=0.3, chi_tilde=1.0, epsilon_w=eps))
    vb = spaces.v_blocks
    v0, v1 = np.r_[vb["sigma"], vb["p"]], np.r_[vb["s"]]  # the momentum and the energy subproblem
    for v in (v0, v1):
        assert np.array_equal(A[np.ix_(v, v)], A[np.ix_(v, v)].T)
    assert np.array_equal(A[np.ix_(v0, v1)], -A[np.ix_(v1, v0)].T)
    assert np.array_equal(A[vb["sigma"], vb["s"]], -A[vb["s"], vb["sigma"]].T)
    assert np.any(A[vb["sigma"], vb["s"]])


@pytest.mark.parametrize(
    "pairing,N,k",
    [("equal", 1, 1), ("equal", 2, 1), ("equal", 2, 2), ("enriched", 1, 1), ("enriched", 1, 2)],
)
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_assembled_matrices_commute_with_the_cube_mirrors(pairing, N, k, mode, eps):
    # the premise of the mirror sectors: Omega^T M Omega = M for each of the
    # three reflections, with Omega and the matrices (the dense oracle) built
    # from tabulations alone
    spaces = build_spaces(N, k, mode, pairing)
    params = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=eps)
    mats = oracle_forms(spaces, params)
    for Omega_V, Omega_Q in mirror_maps(spaces):
        for name, left, right in (("A", Omega_V, Omega_V), ("B", Omega_Q, Omega_V),
                                  ("MV", Omega_V, Omega_V), ("MQ", Omega_Q, Omega_Q)):
            M = mats[name]
            assert np.abs(left.T @ M @ right - M).max() <= 1e-13 * np.abs(M).max(), name


@pytest.mark.parametrize(
    "pairing,N,k",
    [("equal", 1, 1), ("equal", 2, 1), ("enriched", 1, 1), ("enriched", 2, 1), ("enriched", 1, 2)],
)
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_assembled_matrices_commute_with_the_axis_swaps(pairing, N, k, mode):
    # the premise of the orbits of sectors: Omega^T M Omega = M for each of
    # the three swaps of the cube's axes, with Omega and the matrices (the
    # dense oracle) built from tabulations alone; the library's carry, on
    # the slice of each sector s of an orbit with representative r, is that
    # Omega restricted to the sector coordinates of (r, s) (to_sectors) and
    # of (s, r) (from_sectors), it reads nothing else there, and it is the
    # plain permutation on the representatives
    spaces = build_spaces(N, k, mode, pairing)
    mats = oracle_forms(spaces, ModelParams(kn=0.7, chi_tilde=1.3, epsilon_w=0.1))
    maps = permutation_maps(spaces)
    for Omega_V, Omega_Q in maps.values():
        for name, left, right in (("A", Omega_V, Omega_V), ("B", Omega_Q, Omega_V),
                                  ("MV", Omega_V, Omega_V), ("MQ", Omega_Q, Omega_Q)):
            M = mats[name]
            assert np.abs(left.T @ M @ right - M).max() <= 1e-13 * np.abs(M).max(), name
    for S, which in zip(spaces.sectors, (0, 1)):
        assert S.orbits == [(0,), (1, 2, 4), (3, 5, 6), (7,)]
        eye = np.eye(S.order.size)
        down, up = S.to_sectors(eye), S.from_sectors(eye)  # (carried, coordinates), (coordinates, carried)
        for r, s in ((orbit[0], s) for orbit in S.orbits for s in orbit):
            ss, rs = S.sectors[s], S.sectors[r]
            if s == r:
                assert np.array_equal(down[ss], eye[S.order[ss]])
                continue
            (axes,) = [ab for ab in maps if _swap_bits(r, *ab) == s]
            Omega = maps[axes][which][np.ix_(S.order, S.order)]
            for D, want, whole in ((down[ss][:, S.order[ss]], Omega[rs, ss], down[ss]),
                                   (up[S.order[ss]][:, ss], Omega[ss, rs], up[S.order[ss]])):
                assert np.abs(D - want).max() <= 1e-12, (s, axes)
                assert np.abs(whole).sum() == pytest.approx(np.abs(D).sum(), rel=1e-12)
                assert np.abs(D).sum() == pytest.approx(np.abs(want).sum(), rel=1e-12)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_sector_blocks_match_the_tabulated_oracle(pairing, N, k, mode):
    # the dense matrices scattered from the blocks assembled from 1D factors
    # against the dense matrices of tabulated quadrature sums
    spaces = build_spaces(N, k, mode, pairing)
    for eps in (0.0, 0.1):
        params = ModelParams(kn=0.7, chi_tilde=1.3, epsilon_w=eps)
        oracle = oracle_forms(spaces, params)
        system = assemble_system(spaces, params)
        for name in ("A", "B", "M_V", "M_Q"):
            X = oracle[name.replace("_", "")]
            assert np.abs(getattr(system, name) - X).max() <= 1e-13 * np.abs(X).max(), name
        if eps == 0.0:
            assert not np.any(assemble_form("f", spaces, params)) and not np.any(assemble_form("h", spaces, params))


def test_verified_answer_stays_in_the_sector_blocks(monkeypatch):
    # assembly, constants and a bounds-checked solve at equal (3,1) build no
    # dense n_V x n_V or n_Q x n_V matrix (no scatter, a traced
    # peak below two of them) and no tabulation; reading system.A afterwards
    # scatters the blocks once, equal to the tabulated oracle
    from r13verify.saddlepoint import brezzi_constants, solve_mixed

    dense = []
    monkeypatch.setattr(assembly, "_scatter", lambda *args: dense.append("_scatter"))
    spaces = build_spaces(3, 1, "zero_mean")
    tracemalloc.start()
    try:
        system = assemble_system(spaces, PARAMS0, None, BoundaryData(theta_w=np.linspace(0.0, 1.0, 6)))
        assert solve_mixed(system, brezzi_constants(system)).bounds_hold
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense == [] and peak < 2 * 8 * spaces.n_V**2
    op = system.operator
    assert not {"A", "B", "M_V", "M_Q"} & (op.__dict__.keys() | op.structure.__dict__.keys())
    for basis in (spaces.scalar, *spaces.faces):
        assert not {"phi", "dphi"} & basis.__dict__.keys()
    monkeypatch.undo()
    A = system.A
    assert A is op.A and A is system.A and not A.flags.writeable
    oracle = oracle_forms(spaces, PARAMS0)["A"]
    assert np.abs(A - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_sector_blocks_of_A_keep_its_exact_symmetry(pairing):
    # each orbit's block is symmetric to the bit on both subproblems and
    # exactly skew between them, as A itself is assembled; the operator
    # holds one block per orbit and the structure one part per orbit and
    # subproblem
    system = assemble_system(build_spaces(2, 1, "full", pairing), PARAMS)
    op = system.operator
    assert len(op.sectors) == 4 and len(op.structure.parts) == 8
    for S, momentum in zip(op.sectors, op.structure.V.parts[::2]):
        k = momentum.stop
        for d in (slice(0, k), slice(k, None)):
            assert np.array_equal(S[d, d], S[d, d].T)
        assert np.array_equal(S[k:, :k], -S[:k, k:].T) and np.any(S[k:, :k])


def test_form_d_kn_slope_is_korn_gradient_gram(sp):
    # d = Kn G_Stf + (1/(2 Kn)) I_5 (x) mass + Kn-free boundary terms, so the
    # Kn = 2 minus Kn = 1 difference isolates the Stf-gradient Gram of the
    # Korn pencil that the stress coercivity chain divides by
    from r13verify.ellipticity import OperatorSpec

    d2 = assemble_form("d", sp, ModelParams(kn=2.0, chi_tilde=1.0, epsilon_w=0.1))
    d1 = assemble_form("d", sp, PARAMS)
    _, G_l2, G_op = dense_korn_grams(OperatorSpec("stf2", "Stf", 3), sp.scalar)
    expected = G_op - 0.25 * G_l2
    assert_allclose(d2 - d1, expected, rtol=0, atol=1e-12)


def test_dbar_is_regrouped_sum(sp):
    dbar = assemble_form("dbar", sp, PARAMS)
    d = assemble_form("d", sp, PARAMS)
    f = assemble_form("f", sp, PARAMS)
    h = assemble_form("h", sp, PARAMS)
    n5 = 5 * sp.n_scalar
    built = np.zeros_like(dbar)
    built[:n5, :n5] = d
    built[n5:, :n5] = f
    built[:n5, n5:] = f.T
    built[n5:, n5:] = h
    assert_allclose(dbar, built, atol=1e-12)
    assert_allclose(dbar, dbar.T, atol=1e-12)


def test_f_h_vanish_without_epsilon(sp0):
    assert np.all(assemble_form("f", sp0, PARAMS0) == 0.0)
    assert np.all(assemble_form("h", sp0, PARAMS0) == 0.0)


def test_b_form_on_divergence_free_field(sp):
    # r = curl of a polynomial potential: r = (x, -y, 0), div r = 0
    sb = sp.scalar
    r = np.stack(
        [
            sb.project(lambda q: q[:, 0]),
            sb.project(lambda q: -q[:, 1]),
            np.zeros(sp.n_scalar),
        ]
    )
    one = sb.project(lambda q: np.ones(q.shape[0]))
    bmat = assemble_form("b", sp, PARAMS)
    assert abs(one @ bmat @ r.ravel()) < 1e-12


def test_norm_matrices_spd(sp0):
    MV = assemble_form("MV", sp0, PARAMS0)
    MQ = assemble_form("MQ", sp0, PARAMS0)
    for M in (MV, MQ):
        assert np.max(np.abs(M - M.T)) < 1e-13
        assert np.linalg.eigvalsh(M).min() > 0


def test_B_block_structure(sp):
    B = assemble_form("B", sp, PARAMS)
    qb, vb = sp.q_blocks, sp.v_blocks
    assert np.any(B[qb["u"], vb["sigma"]] != 0)
    assert np.any(B[qb["u"], vb["p"]] != 0)
    assert np.any(B[qb["theta"], vb["s"]] != 0)
    assert_allclose(B[qb["u"], vb["s"]], 0.0, atol=0)
    assert_allclose(B[qb["theta"], vb["sigma"]], 0.0, atol=0)
    assert_allclose(B[qb["theta"], vb["p"]], 0.0, atol=0)


def test_integration_by_parts_consistency(sp):
    # int Div sigma . v + int sigma : Dv = int_Gamma (sigma n) . v
    sig, v, _ = rand_blocks(sp, 9)
    sb = sp.scalar
    _, dv, sig_vals, dsig = field_data(sp, sig, v)
    v_vals = np.einsum("iI,qI->qi", v, sb.phi)
    div_sig = np.einsum("qijj->qi", dsig)
    lhs = np.sum(sb.weights * np.einsum("qi,qi->q", div_sig, v_vals))
    lhs += np.sum(sb.weights * np.einsum("qij,qij->q", sig_vals, dv))
    rhs = 0.0
    for f, fd in enumerate(sb.faces):
        sg = np.einsum("qa,aij->qij", np.einsum("aI,qI->qa", sig, fd.phi), sp.E)
        vv = np.einsum("iI,qI->qi", v, fd.phi)
        rhs += np.sum(fd.weights * np.einsum("qij,j,qi->q", sg, fd.frame.n, vv))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_loads_zero_data(sp):
    F, G = assemble_load(sp, PARAMS)
    assert np.all(F == 0) and np.all(G == 0)


def test_load_theta_wall_hits_only_s_rows(sp):
    F, G = assemble_load(sp, PARAMS, bdata=BoundaryData(theta_w=np.ones(6)))
    vb = sp.v_blocks
    assert np.any(F[vb["s"]] != 0)
    assert_allclose(F[vb["sigma"]], 0.0, atol=0)
    assert_allclose(F[vb["p"]], 0.0, atol=0)
    assert np.all(G == 0)


def wall_load_oracle(spaces, params, bdata):
    """F of the wall data alone by a quadrature over each face, one face at a time: the
    face tabulations phi and weights of each basis, the face's frame vectors, and the
    sigma weights nn, nt1, nt2 of stress_face_weights. Wall velocity and the effective
    normal velocity u_n - eps chi p drive sigma and p, wall temperature s."""
    chi, eps = params.chi_tilde, params.epsilon_w
    n, m = spaces.scalar.n, spaces.scalar_pq.n
    sig, s, raw_p = np.zeros((5, n)), np.zeros((3, n)), np.zeros(m)
    for f, (fd, w) in enumerate(zip(spaces.faces, spaces.stress_face_weights)):
        face_int = fd.phi.T @ fd.weights
        pq = spaces.scalar_pq.faces[f]
        eff = bdata.u_n_w[f] - eps * chi * bdata.p_w[f]
        for a in range(5):
            sig[a] -= (bdata.u_t1_w[f] * w["nt1"][a] + bdata.u_t2_w[f] * w["nt2"][a] + eff * w["nn"][a]) * face_int
        for i in range(3):
            s[i] -= bdata.theta_w[f] * fd.frame.n[i] * face_int
        raw_p -= eff * (pq.phi.T @ pq.weights)
    return np.concatenate([sig.ravel(), s.ravel(), dense_Cp(spaces).T @ raw_p])


@pytest.mark.parametrize("pairing,N,k,mode", [("equal", 2, 1, "zero_mean"), ("equal", 2, 1, "full"), ("enriched", 1, 2, "zero_mean")])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_wall_loads_match_face_quadrature(pairing, N, k, mode, eps):
    # seeded data on every face and every wall field; the face tables and
    # the loop over faces agree to rounding, and no wall datum reaches G
    sp = build_spaces(N, k, mode, pairing)
    params = ModelParams(kn=1.0, chi_tilde=0.8, epsilon_w=eps)
    rng = np.random.default_rng(71)
    for _ in range(3):
        bdata = BoundaryData(*(0.5 * rng.standard_normal((5, 6))))
        F, G = assemble_load(sp, params, bdata=bdata)
        expected = wall_load_oracle(sp, params, bdata)
        assert np.linalg.norm(F - expected) <= 1e-13 * np.linalg.norm(expected)
        assert np.all(G == 0)


def test_load_mass_source_theta_block(sp):
    src = VolumeSources(m_src=lambda q: np.ones(q.shape[0]))
    F, G = assemble_load(sp, PARAMS, sources=src)
    qb = sp.q_blocks
    expected = sp.scalar.integrals()
    assert_allclose(G[qb["theta"]], expected, atol=1e-14)
    assert_allclose(G[qb["u"]], 0.0, atol=0)


def test_closures_examples(sp):
    sb = sp.scalar
    n = sp.n_scalar
    kn = PARAMS.kn

    # s linear with div s = 0 -> Delta identically zero
    s = np.stack([sb.project(lambda q: q[:, 1]), np.zeros(n), np.zeros(n)])
    _, _, delta = compute_closures(np.zeros((5, n)), s, sp, PARAMS)
    assert np.max(np.abs(delta)) < 1e-12

    # constant sigma -> m identically zero
    sig = np.zeros((5, n))
    sig[2] = sb.project(lambda q: np.ones(q.shape[0]))
    m3, _, _ = compute_closures(sig, np.zeros((3, n)), sp, PARAMS)
    assert np.max(np.abs(m3)) < 1e-12

    # s = (x, 0, 0): Delta = -12 Kn, R = -(24/5) Kn stf(e1 x e1)
    s = np.stack([sb.project(lambda q: q[:, 0]), np.zeros(n), np.zeros(n)])
    _, R2, delta = compute_closures(np.zeros((5, n)), s, sp, PARAMS)
    assert_allclose(delta, -12.0 * kn * np.ones_like(delta), atol=1e-12)
    expected = -(24.0 / 5.0) * kn * project2(np.outer([1.0, 0, 0], [1.0, 0, 0]), "stf")
    assert_allclose(R2, np.broadcast_to(expected, R2.shape), atol=1e-12)


def test_bc_residuals_zero_solution(sp):
    res = bc_residuals(np.zeros(sp.n_V), np.zeros(sp.n_Q), sp, PARAMS)
    assert all(v == 0.0 for v in res.values())


def test_bc_residual_relation4_manufactured(sp):
    # constant fields with per-face wall temperature chosen to close the
    # normal heat-flux relation exactly
    sb = sp.scalar
    n = sp.n_scalar
    chi = PARAMS.chi_tilde
    one = sb.project(lambda q: np.ones(q.shape[0]))
    rng = np.random.default_rng(11)
    s_const = rng.standard_normal(3)
    sig_coords = rng.standard_normal(5)
    theta0 = 0.7

    U = np.zeros(sp.n_V)
    P = np.zeros(sp.n_Q)
    sigU = U[sp.v_blocks["sigma"]].reshape(5, n)
    for a in range(5):
        sigU[a] = sig_coords[a] * one
    sU = U[sp.v_blocks["s"]].reshape(3, n)
    for i in range(3):
        sU[i] = s_const[i] * one
    P[sp.q_blocks["theta"]] = theta0 * one

    sig_mat = np.einsum("a,aij->ij", sig_coords, sp.E)
    theta_w = np.zeros(6)
    for f, fd in enumerate(sp.faces):
        nvec = fd.frame.n
        s_n = s_const @ nvec
        sig_nn = nvec @ sig_mat @ nvec
        theta_w[f] = theta0 - (s_n / chi - 0.5 * sig_nn) / 2.0
    res = bc_residuals(U, P, sp, PARAMS, BoundaryData(theta_w=theta_w))
    assert res["normal_heat_flux"] < 1e-12


def test_unknown_form_id_rejected(sp):
    with pytest.raises(ValueError, match="unknown form_id"):
        assemble_form("z", sp, PARAMS)


def test_dbar_positive_semidefinite(sp):
    # the total-pressure regrouping makes the stress/pressure form psd
    dbar = assemble_form("dbar", sp, PARAMS)
    vals = np.linalg.eigvalsh(0.5 * (dbar + dbar.T))
    assert vals[0] > -1e-12 * max(vals[-1], 1.0)


def test_quadratic_form_splits_into_symmetric_parts(sp):
    # the coupling terms cancel in the quadratic form, so A(U, U) equals
    # the heat form plus the stress/pressure form evaluated blockwise
    rng = np.random.default_rng(21)
    A = assemble_form("A", sp, PARAMS)
    a = assemble_form("a", sp, PARAMS)
    dbar = assemble_form("dbar", sp, PARAMS)
    n = sp.n_scalar
    for _ in range(5):
        x = rng.standard_normal(sp.n_V)
        sig = x[sp.v_blocks["sigma"]]
        s = x[sp.v_blocks["s"]]
        p = x[sp.v_blocks["p"]]
        sp_vec = np.concatenate([sig, p])
        total = x @ A @ x
        parts = s @ a @ s + sp_vec @ dbar @ sp_vec
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_boundary_data_scalar_broadcast():
    bd = BoundaryData(theta_w=1.0)
    assert bd.theta_w.shape == (6,)
    assert np.all(bd.theta_w == 1.0)
    with pytest.raises(ValueError):
        BoundaryData(p_w=np.array([1.0, 2.0]))


def test_closures_agree_on_faces(sp):
    # constant-gradient stress: the rank-3 moment is constant, so volume
    # and face evaluations must coincide
    sb = sp.scalar
    n = sp.n_scalar
    sig = np.zeros((5, n))
    sig[0] = sb.project(lambda q: q[:, 0])
    m3_vol, _, _ = compute_closures(sig, np.zeros((3, n)), sp, PARAMS)
    m3_face, _, _ = compute_closures(sig, np.zeros((3, n)), sp, PARAMS, face=4)
    assert_allclose(m3_vol[0], m3_vol[-1], atol=1e-13)
    assert_allclose(m3_face[0], m3_vol[0], atol=1e-13)
    # and it matches the projected dyad built from the component basis
    from r13verify.tensors import project3

    expected = -2.0 * PARAMS.kn * project3(
        np.einsum("ij,k->ijk", sp.E[0], np.eye(3)[0]), "Stf"
    )
    assert_allclose(m3_vol[0], expected, atol=1e-13)


def part_norm_blocks(structure):
    """Each part's (M_V, M_Q) blocks, assembled anew in C order, so that no factor overwrites them."""
    V, Q = structure.V, structure.Q
    M_V = _sector_assemble(_norm_terms(len(V.fields), h1=True), V, V, {}, by_part=True)
    M_Q = _sector_assemble(_norm_terms(len(Q.fields), h1=False), Q, Q, {}, by_part=True)
    return list(zip(M_V, M_Q))


@pytest.mark.parametrize("pairing,N,k", [("equal", 2, 1), ("enriched", 1, 2)])
def test_part_factors_are_scipy_cholesky_bit_for_bit(pairing, N, k):
    # one LAPACK potrf per block, in Fortran order: the bits of scipy.linalg.cholesky
    structure = assemble_system(build_spaces(N, k, "zero_mean", pairing), PARAMS0).operator.structure
    assert len(structure.parts) == 8
    for part, norms in zip(structure.parts, part_norm_blocks(structure)):
        for L, M in zip(part.cholesky, norms):
            ref = np.asfortranarray(sla.cholesky(M, lower=True))
            assert L.flags.f_contiguous and L.dtype == ref.dtype and L.shape == ref.shape
            assert L.tobytes(order="F") == ref.tobytes(order="F")


def test_part_factors_reject_what_scipy_cholesky_rejects(sp0):
    # a block that is not positive definite raises LinAlgError, a non-finite one ValueError
    structure = assemble_system(sp0, PARAMS0).operator.structure
    part = structure.parts[0]
    M_V, M_Q = part_norm_blocks(structure)[0]
    indefinite = M_V.copy()
    indefinite[-1, -1] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        SaddlePart.factor(part.B, indefinite, M_Q)
    with pytest.raises(np.linalg.LinAlgError):
        SaddlePart.factor(part.B, M_V, -M_Q)
    for bad in (np.nan, np.inf):
        broken = M_Q.copy()
        broken[0, -1] = broken[-1, 0] = bad
        with pytest.raises(ValueError):
            SaddlePart.factor(part.B, M_V, broken)


def test_parts_hold_their_factors_in_the_arrays_their_blocks_were_assembled_in(monkeypatch):
    # a part keeps its block of B and the two Cholesky factors, not its M_V and M_Q blocks:
    # assembly allocates those in Fortran order and potrf factors each one in place
    assembled = []

    def recording(*args, **kwargs):
        assembled.append(sector_assemble(*args, **kwargs))
        return assembled[-1]

    sector_assemble = assembly._sector_assemble
    monkeypatch.setattr(assembly, "_sector_assemble", recording)
    structure = assembly.SaddleStructure.assemble(build_spaces(2, 1, "zero_mean", "enriched"))
    assert len(assembled) == 3 and len(structure.parts) == 8  # B, M_V, M_Q
    for part, *norms in zip(structure.parts, *assembled[1:]):
        assert not hasattr(part, "M_V") and not hasattr(part, "M_Q")
        for L, M in zip(part.cholesky, norms):
            assert M.flags.f_contiguous and L.flags.f_contiguous and L.shape == M.shape
            assert not np.triu(L, 1).any()
            assert np.shares_memory(L, M)
