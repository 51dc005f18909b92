import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from r13verify.assembly import (
    BoundaryData, ModelParams, VolumeSources, _B_terms, _norm_terms, _sector_assemble, assemble_load,
    assemble_system,
)
from r13verify.spaces import (
    PAIRINGS, Basis1D, BubbleBasis, ScalarBasis, Sectors, _swap_bits, build_spaces, swap_maps,
)
from r13verify.tensors import stf_basis

from helpers import component_swap_maps, dense_Cp, kron_gram, mirror_maps, permutation_maps


def test_dimensions_full():
    sp = build_spaces(1, 1, "full")
    assert sp.n_V == 72
    assert sp.n_Q == 32


def test_dimensions_zero_mean():
    sp = build_spaces(1, 1, "zero_mean")
    assert sp.n_V == 71
    sp = build_spaces(1, 1, "zero_mean", "enriched")
    assert sp.n_V == 223
    assert sp.n_Q == 32


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_spaces(0, 1)
    with pytest.raises(ValueError):
        build_spaces(1, 0)
    with pytest.raises(ValueError):
        build_spaces(1, 1, "weird")
    with pytest.raises(ValueError, match="pairing"):
        build_spaces(1, 1, "full", "weird")


@pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (3, 2), (2, 3)])
def test_quadrature_exactness_1d(N, k):
    # the per-cell Gauss rule integrates x^(2N+1) exactly over [0, 1]
    b = Basis1D(N, k)
    p = 2 * N + 1
    val = np.sum(b.weights * b.nodes**p)
    assert abs(val - 1.0 / (p + 1)) < 1e-14


@pytest.mark.parametrize("N,k", [(1, 2), (2, 2), (3, 3)])
def test_basis1d_partition_of_unity_and_continuity(N, k):
    b = Basis1D(N, k)
    # hats sum to one, bubbles vanish at every node
    x = np.linspace(0, 1, 201)
    V = b.evaluate(x)
    assert_allclose(V.sum(axis=1)[: k + 1].size, k + 1)  # shape sanity
    hats = V[:, : k + 1]
    assert_allclose(hats.sum(axis=1), np.ones_like(x), atol=1e-13)
    nodes = np.linspace(0, 1, k + 1)
    Vn = b.evaluate(nodes)
    assert_allclose(Vn[:, k + 1 :], 0.0, atol=1e-13)


def test_basis1d_mass_matches_exact_integrals():
    # independent high-order rule, applied per cell (functions are piecewise)
    b = Basis1D(2, 2)
    from numpy.polynomial.legendre import leggauss

    xr, wr = leggauss(24)
    xr = 0.5 * (xr + 1)
    wr = 0.5 * wr
    x = np.concatenate([(c + xr) / b.subdivisions for c in range(b.subdivisions)])
    w = np.concatenate([wr / b.subdivisions] * b.subdivisions)
    V = b.evaluate(x)
    exact = V.T @ (w[:, None] * V)
    quad = b.values.T @ (b.weights[:, None] * b.values)
    assert_allclose(quad, exact, atol=1e-13)


def test_scalar_gradient_consistency():
    # tabulated gradients match finite differences of tabulated values
    sb = ScalarBasis(3, 2, 1)
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(sb.n)
    x0 = np.array([[0.331, 0.52, 0.743]])
    h = 1e-6

    def value(pts):
        vx = sb.b1.evaluate(pts[:, 0])
        vy = sb.b1.evaluate(pts[:, 1])
        vz = sb.b1.evaluate(pts[:, 2])
        phi = np.einsum("qa,qb,qc->qabc", vx, vy, vz).reshape(pts.shape[0], -1)
        return phi @ coef

    for ax in range(3):
        dx = np.zeros(3)
        dx[ax] = h
        fd = (value(x0 + dx) - value(x0 - dx)) / (2 * h)
        grad_tab = (sb.dphi[ax] @ coef)
        # compare at the nearest quadrature point by re-evaluating exactly
        vx = sb.b1.evaluate(x0[:, 0], order=1 if ax == 0 else 0)
        vy = sb.b1.evaluate(x0[:, 1], order=1 if ax == 1 else 0)
        vz = sb.b1.evaluate(x0[:, 2], order=1 if ax == 2 else 0)
        phi = np.einsum("qa,qb,qc->qabc", vx, vy, vz).reshape(1, -1)
        assert abs((phi @ coef)[0] - fd[0]) < 1e-6
        assert grad_tab.shape == (sb.weights.size,)


def test_volume_and_face_quadrature_measures():
    sb = ScalarBasis(3, 2, 2)
    assert abs(np.sum(sb.weights) - 1.0) < 1e-13
    for fd in sb.faces:
        assert abs(np.sum(fd.weights) - 1.0) < 1e-13
        # face points lie on the face
        assert_allclose(fd.points[:, fd.axis], float(fd.side), atol=1e-14)


def test_face_frames_right_handed():
    sb = ScalarBasis(3, 1, 1)
    for fd in sb.faces:
        fr = fd.frame
        assert_allclose(np.cross(fr.t1, fr.t2), fr.n, atol=1e-14)
        outward = np.zeros(3)
        outward[fd.axis] = 1.0 if fd.side == 1 else -1.0
        assert_allclose(fr.n, outward, atol=1e-14)


def test_projection_reproduces_polynomials():
    sb = ScalarBasis(3, 2, 2)

    def f(pts):
        return 1.0 + 2 * pts[:, 0] - pts[:, 1] * pts[:, 2] + pts[:, 0] ** 2

    coef = sb.project(f)
    assert np.linalg.norm(sb.phi @ coef - f(sb.points)) < 1e-11


def test_zero_mean_transform():
    # enriched (1,1) has a fully even pressure class of one function, where a
    # cancelling Householder sign would divide 0 by 0
    for pairing in PAIRINGS:
        for N, k in ((1, 1), (2, 2)):
            sp = build_spaces(N, k, "zero_mean", pairing)
            m, Cp = sp.scalar_pq.n, dense_Cp(sp)
            assert Cp.shape == (m, m - 1) and sp.n_p == m - 1
            assert np.all(np.isfinite(Cp))
            assert_allclose(Cp.T @ Cp, np.eye(sp.n_p), atol=1e-13)
            # every admissible pressure has zero mean, also through the spaces' own map
            assert np.linalg.norm(sp.scalar_pq.integrals() @ Cp) < 1e-12
            expanded = np.column_stack([sp.expand_p(q) for q in np.eye(sp.n_p)])
            assert np.linalg.norm(sp.scalar_pq.integrals() @ expanded) < 1e-12
            # each column lies inside the sector of its coordinate, the only sector
            # the spaces' layout gives it, and outside sector 0 it is its own function
            coordinate_sectors = sp.scalar_pq.sectors(0).ravel()
            labels = sp.sectors[0].labels[-1]
            for C in (Cp, expanded):
                assert not np.any(C[coordinate_sectors[:, None] != labels[None, :]])
            assert np.array_equal(expanded[:, labels != 0], np.eye(m)[:, sp.p_keep[labels != 0]])
            assert sp.p_R.flags.f_contiguous and sp.p_R.shape == (np.sum(coordinate_sectors == 0), np.sum(labels == 0))


@pytest.mark.parametrize("mode", ["zero_mean", "full"])
@pytest.mark.parametrize("pairing,N,k", [("equal", 1, 1), ("equal", 2, 1), ("equal", 3, 1), ("enriched", 1, 1), ("enriched", 2, 2)])
def test_pressure_maps_are_the_dense_transform(pairing, N, k, mode):
    # split_V expands p = Cp q and assemble_load restricts Cp^T raw with the
    # spaces' keep list and sector-0 block; they agree with the dense Cp to
    # rounding, and in full mode (Cp the identity) to the bit. The raw pressure
    # load is read from the full spaces on the same bases, whose Cp is the identity
    sp, full = build_spaces(N, k, mode, pairing), build_spaces(N, k, "full", pairing)
    Cp, rng = dense_Cp(sp), np.random.default_rng(8)
    U, raw = rng.standard_normal(sp.n_V), rng.standard_normal(sp.scalar_pq.n)
    q = U[sp.v_blocks["p"]]
    params = ModelParams(kn=0.7, chi_tilde=1.2, epsilon_w=0.1)
    sources = VolumeSources(m_src=lambda x: np.cos(np.pi * x[:, 0]) + x[:, 1] * x[:, 2])
    bdata = BoundaryData(*(0.5 * rng.standard_normal((5, 6))))
    F, G = assemble_load(sp, params, sources, bdata)
    F_full, G_full = assemble_load(full, params, sources, bdata)
    raw_load = F_full[full.v_blocks["p"]]
    pairs = ((sp.split_V(U)[2], Cp @ q, q), (sp.restrict_p(raw), Cp.T @ raw, raw), (F[sp.v_blocks["p"]], Cp.T @ raw_load, raw_load))
    for got, want, x in pairs:
        if mode == "full":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.linalg.norm(x)
    assert np.array_equal(F[: 8 * sp.n_scalar], F_full[: 8 * full.n_scalar]) and np.array_equal(G, G_full)


def test_zero_mean_spaces_hold_no_dense_pressure_transform():
    # the zero-mean pressure is held as its keep list and its sector-0 block R:
    # at (2,4), n_p = 728, no array of the spaces or of their Sectors comes near
    # the n_p^2 entries of a dense Cp
    sp = build_spaces(2, 4, "zero_mean")
    assert not hasattr(sp, "Cp") and not hasattr(sp, "p_sectors")
    arrays = [v for obj in (sp, *sp.sectors) for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert any(a is sp.p_R for a in arrays)
    assert max(a.size for a in arrays) < sp.n_p**2 / 8


def test_integration_by_parts_scalar():
    # int f' g + int f g' = f g | boundary: the Kronecker-built gram of
    # phi_I d_x phi_J against the tabulated face traces
    sb = ScalarBasis(3, 2, 2)
    rng = np.random.default_rng(1)
    cf, cg = rng.standard_normal(sb.n), rng.standard_normal(sb.n)
    vmat = kron_gram(sb, ("d", "m", "m"))
    lhs = cf @ vmat @ cg + cg @ vmat @ cf
    # boundary term over the two x-faces
    rhs = 0.0
    for f_id, fd in enumerate(sb.faces):
        if fd.axis != 0:
            continue
        sign = 1.0 if fd.side == 1 else -1.0
        rhs += sign * np.sum(fd.weights * (fd.phi @ cf) * (fd.phi @ cg))
    assert abs(lhs - rhs) < 1e-12


def test_bubble_basis_vanishes_on_boundary():
    sb = ScalarBasis(3, 2, 1)
    bb = BubbleBasis(3, 3, sb.b1.nodes, sb.b1.weights)
    assert bb.n == 8
    for fd in sb.faces:
        # evaluate bubble functions at face points: all zero by construction
        pts = fd.points
        vals = np.ones((pts.shape[0], bb.n))
        # reconstruct via 1d evaluation
        from numpy.polynomial.legendre import Legendre

        xpoly = Legendre([0.5, 0.5], domain=[0, 1])
        onemx = Legendre([0.5, -0.5], domain=[0, 1])
        funcs = [xpoly * onemx * Legendre.basis(j, domain=[0, 1]) for j in range(bb.degree - 1)]
        fac = [np.column_stack([f(pts[:, a]) for f in funcs]) for a in range(3)]
        n1 = bb.degree - 1
        vals = np.einsum("qa,qb,qc->qabc", fac[0], fac[1], fac[2]).reshape(pts.shape[0], -1)
        assert np.max(np.abs(vals)) < 1e-13


def test_bubble_h1_gram_spd():
    sb = ScalarBasis(3, 2, 1)
    bb = BubbleBasis(3, 3, sb.b1.nodes, sb.b1.weights)
    g = bb.h1_gram()
    assert_allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > 0


def test_factors_are_keyed_by_the_trial_basis_not_its_id():
    # each trial is freed before the next is built, so a later trial may get the
    # id of an earlier one; it must still get its own grams, equal to a fresh basis's
    a, degrees = ScalarBasis(3, 2, 1), (1, 3, 1, 4, 2, 3)
    grams = [a.factors(ScalarBasis(3, N, 1, n_quad=4))["m"] for N in degrees]
    assert [m.shape for m in grams] == [(3, N + 1) for N in degrees]
    for N, m in zip(degrees, grams):
        assert np.array_equal(m, ScalarBasis(3, 2, 1).factors(ScalarBasis(3, N, 1, n_quad=4))["m"])
    assert a.factors(ScalarBasis(3, 2, 1)) is a.factors()


@pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_basis1d_mirror_matches_tabulation(N, k):
    b = Basis1D(N, k)
    x = np.linspace(0.0, 1.0, 37)
    pi, sign = b.mirror()
    assert_allclose(b.evaluate(1.0 - x), b.evaluate(x)[:, pi] * sign, atol=1e-13)
    T1, n_even = b.parity_basis()
    assert_allclose(T1.T @ T1, np.eye(b.n), atol=1e-15)
    # the first n_even parity functions are even, the rest odd
    parity = np.where(np.arange(b.n) < n_even, 1.0, -1.0)
    assert_allclose(b.evaluate(1.0 - x) @ T1, (b.evaluate(x) @ T1) * parity, atol=1e-13)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_mirror_basis_diagonalizes_the_mirror_maps(pairing, N, k, mode):
    # in the parity basis each mirror map Omega_a is diag(+-1), the sign of
    # each coordinate read off bit a of its sector; enriched (1,1) zero_mean
    # has a fully even pressure class of one function, which the zero-mean
    # constraint removes
    spaces = build_spaces(N, k, mode, pairing)
    sectors = []
    for S, n in zip(spaces.sectors, (spaces.n_V, spaces.n_Q)):
        sector = np.full(n, -1)
        for s, sl in enumerate(S.sectors):
            sector[S.order[sl]] = s
        assert np.all((sector >= 0) & (sector < 8))
        sectors.append(sector)
    for a, Omegas in enumerate(mirror_maps(spaces)):
        for Omega, sector in zip(Omegas, sectors):
            assert_allclose(Omega, np.diag(np.where(sector >> a & 1, -1.0, 1.0)), atol=1e-12)
    # the sectors' slices are a permutation of the coordinates, and without
    # the axis swaps the sector coordinates are that permutation
    rng = np.random.default_rng(3)
    for S in spaces.sectors:
        x, plain = rng.standard_normal(S.order.size), Sectors(S.fields)
        assert np.array_equal(np.sort(S.order), np.arange(x.size))
        assert np.array_equal(plain.to_sectors(x), x[plain.order])
        assert np.array_equal(plain.from_sectors(plain.to_sectors(x)), x)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_one_sector_layout_serves_sectors_and_parts(pairing, mode):
    # the parts tile every sector of orbit o as part 2 o (momentum) then
    # 2 o + 1 (energy); the momentum parts hold exactly sigma and p of V and
    # u of Q; the blocks assembled by part are bitwise the part-diagonal
    # sub-blocks of the blocks assembled by sector, whose other sub-blocks
    # are zero, on every sector (the layout without the axis swaps, where
    # each sector is an orbit of its own and assembled)
    spaces = build_spaces(2, 1, mode, pairing)
    V, Q = spaces.sectors
    structure = assemble_system(spaces, ModelParams()).operator.structure
    assert structure.V is V and structure.Q is Q
    vb, qb = spaces.v_blocks, spaces.q_blocks
    subproblems = ((np.r_[vb["sigma"], vb["p"]], np.r_[vb["s"]]), (np.r_[qb["u"]], np.r_[qb["theta"]]))
    for S, coords in zip((V, Q), subproblems):
        assert len(S.sectors) == 8 and len(S.parts) == 2 * len(S.orbits) == 8
        for o, orbit in enumerate(S.orbits):
            momentum, energy = S.parts[2 * o : 2 * o + 2]
            assert momentum.start == 0 and momentum.stop == energy.start
            assert all(S.sectors[s].stop - S.sectors[s].start == energy.stop for s in orbit)
        for sub, want in enumerate(coords):
            got = [S.order[S.sectors[s]][S.parts[2 * o + sub]] for o, orbit in enumerate(S.orbits) for s in orbit]
            assert np.array_equal(np.sort(np.concatenate(got)), want)
    h1, l2 = _norm_terms(len(V.fields), h1=True), _norm_terms(len(Q.fields), h1=False)
    V, Q = Sectors(V.fields), Sectors(Q.fields)
    for terms, rows, cols in ((_B_terms(spaces), Q, V), (h1, V, V), (l2, Q, Q)):
        by_sector = _sector_assemble(terms, rows, cols, {})
        by_part = _sector_assemble(terms, rows, cols, {}, by_part=True)
        assert len(by_part) == 16 and len({id(X) for X in by_part}) == 16
        for s, X in enumerate(by_sector):
            for i, j in ((2 * s, 2 * s), (2 * s, 2 * s + 1), (2 * s + 1, 2 * s), (2 * s + 1, 2 * s + 1)):
                block = X[rows.parts[i], cols.parts[j]]
                if i == j:
                    assert np.array_equal(block, by_part[i])
                else:
                    assert not np.any(block)


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_evaluate_returns_projected_polynomials_and_their_gradients(pairing):
    # polynomials projected onto each pairing's own bases come back, with their
    # exact gradients, at the volume points and at one face's points; p = x - 1/2
    # has zero mean and enters through Cp^T (restrict_p)
    sp = build_spaces(2, 1, "zero_mean", pairing)
    sb, pb = sp.scalar, sp.scalar_pq
    U, P = np.zeros(sp.n_V), np.zeros(sp.n_Q)
    sig, s = U[sp.v_blocks["sigma"]].reshape(5, -1), U[sp.v_blocks["s"]].reshape(3, -1)
    u, theta = P[sp.q_blocks["u"]].reshape(3, -1), P[sp.q_blocks["theta"]]
    sig[0], sig[3] = sb.project(lambda q: q[:, 2] ** 2), sb.project(lambda q: q[:, 0] * q[:, 1])
    s[1] = sb.project(lambda q: q[:, 0] * q[:, 1])
    U[sp.v_blocks["p"]] = sp.restrict_p(pb.project(lambda q: q[:, 0] - 0.5))
    u[0], u[2] = pb.project(lambda q: q[:, 1] * q[:, 2]), pb.project(lambda q: q[:, 0] ** 2)
    theta[:] = pb.project(lambda q: 1.0 + q[:, 0] * q[:, 2])

    def exact(pts):
        """Per field, (value, gradient): sums of a scalar polynomial, with its gradient
        g(d_x, d_y, d_z), times a constant stress, vector or 1."""
        x, y, z = pts.T
        o, e = 0 * x, np.eye(3)

        def g(*cols):
            return np.stack(cols, axis=-1)

        terms = {
            "sigma": [(z**2, g(o, o, 2 * z), sp.E[0]), (x * y, g(y, x, o), sp.E[3])],
            "s": [(x * y, g(y, x, o), e[1])],
            "p": [(x - 0.5, g(1 + o, o, o), 1.0)],
            "u": [(y * z, g(o, z, y), e[0]), (x**2, g(2 * x, o, o), e[2])],
            "theta": [(1 + x * z, g(z, o, x), 1.0)],
        }
        return {
            name: (sum(np.multiply.outer(v, T) for v, _, T in t),
                   sum(np.moveaxis(np.multiply.outer(dv, T), 1, -1) for _, dv, T in t))
            for name, t in terms.items()
        }

    for face, pts in ((None, sb.points), (3, sb.faces[3].points)):
        for name, (val, grad) in exact(pts).items():
            assert_allclose(sp.evaluate(name, U, P, face=face), val, rtol=0, atol=1e-12, err_msg=name)
            assert_allclose(sp.evaluate(name, U, P, grad=True, face=face), grad, rtol=0, atol=1e-11, err_msg=name)


def test_field_readers_tabulate_no_stress_gradients(tmp_path):
    # the limit misfits read sigma and s, not their gradients, and the export
    # reads no gradient at all: neither builds the volume dphi of the sigma/s basis
    from r13verify.assembly import ModelParams, assemble_system
    from r13verify.report import export_fields_csv, limit_study_boundary_data
    from r13verify.saddlepoint import limit_consistency, solve_mixed

    sp = build_spaces(1, 1, "full", "enriched")
    system = assemble_system(sp, ModelParams(1.0, 1.0, 0.1), None, limit_study_boundary_data())
    sol = solve_mixed(system)
    assert "dphi" not in sp.scalar.__dict__
    limit_consistency(sol.U, sol.P, system)
    assert "dphi" not in sp.scalar.__dict__ and "dphi" in sp.scalar_pq.__dict__
    sp = build_spaces(2, 1, "zero_mean")
    export_fields_csv(sp, np.ones(sp.n_V), np.ones(sp.n_Q), tmp_path / "fields.csv")
    assert "dphi" not in sp.scalar.__dict__


@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_sectors_refuse_an_orbit_of_unequal_part_sizes(mode):
    # V as the spaces build it, but one coordinate of the pressure moved
    # from sector 2 to sector 4 (given the point of a sector-4 function):
    # sectors 2 and 4 no longer have the part sizes of their representative,
    # sector 1, and the constructor says so before it builds any map; without
    # the swaps the same fields build
    sp = build_spaces(1, 1, mode)
    V = sp.sectors[0]
    *pressure, points, sub = V.fields[-1]
    labels, moved = V.labels[-1], points.copy()
    moved[np.flatnonzero(labels == 2)[0]] = points[np.flatnonzero(labels == 4)[0]]
    fields = V.fields[:-1] + [(*pressure, moved, sub)]
    with pytest.raises(ValueError, match="part sizes"):
        Sectors(fields, V.swaps)
    assert Sectors(fields).orbits == [(s,) for s in range(8)]


def test_sectors_refuse_swaps_that_do_not_fit_their_labels():
    # a vector field whose swaps leave its components in place: component 0
    # flips under the x mirror, yet the (x, y) swap keeps it component 0, so
    # it maps sector 1 onto no sector. The part sizes still match, so the
    # constructor builds; the first carried vector, which builds the carry,
    # refuses it, and so does every later one
    sb = ScalarBasis(3, 2, 1)
    fields = [(sb, mask, None, None, 0) for mask in (1, 2, 4)]
    S = Sectors(fields, swap_maps([np.ones(1)] * 3, 3))
    assert S.orbits == [(0,), (1, 2, 4), (3, 5, 6), (7,)]
    for carry in (S.to_sectors, S.from_sectors, S.to_sectors):
        with pytest.raises(ValueError, match="does not map sector"):
            carry(np.ones(3 * sb.n))
    fitting = Sectors(fields, swap_maps([np.eye(3)], 3))
    x = np.arange(3 * sb.n, dtype=float)
    assert np.array_equal(fitting.from_sectors(fitting.to_sectors(x)), x)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_orbits_lie_side_by_side_as_the_rows_of_one_array(pairing, mode):
    # the sector coordinates list the orbits 0 | 1 2 4 | 3 5 6 | 7, each
    # orbit's sectors adjacent; row j of an orbit's array is sector
    # orbit[j]'s carried slice, the swap's coefficient map (built from
    # tabulations) taking it onto the representative's coordinates; without
    # the swaps (the per-sector reference layout) the order is the stable
    # sort by (sector, subproblem), each sector an orbit of its own
    sp = build_spaces(1, 2, mode, pairing)
    rng, maps = np.random.default_rng(4), permutation_maps(sp)
    for S, which in zip(sp.sectors, (0, 1)):
        assert S.orbits == [(0,), (1, 2, 4), (3, 5, 6), (7,)]
        listed = [S.sectors[s] for orbit in S.orbits for s in orbit]
        assert listed[0].start == 0 and listed[-1].stop == S.order.size
        assert all(a.stop == b.start for a, b in zip(listed[:-1], listed[1:]))
        x = rng.standard_normal(S.order.size)
        rows = S.split(S.to_sectors(x))
        assert [Y.shape[0] for Y in rows] == [1, 3, 3, 1]
        for orbit, Y in zip(S.orbits, rows):
            want = x[S.order[S.sectors[orbit[0]]]]
            assert np.array_equal(Y[0], want)
            for j, s in enumerate(orbit[1:], 1):
                (axes,) = [ab for ab in maps if _swap_bits(orbit[0], *ab) == s]
                want = (maps[axes][which] @ x)[S.order[S.sectors[orbit[0]]]]
                assert np.abs(Y[j] - want).max() <= 1e-12 * np.abs(x).max(), (s, axes)
        plain = Sectors(S.fields)
        slots = np.concatenate([2 * lab + sub for lab, (*_, sub) in zip(S.labels, S.fields)])
        assert np.array_equal(plain.order, np.argsort(slots, kind="stable"))
        assert plain.orbits == [(s,) for s in range(8)]
        assert [Y.shape[0] for Y in plain.split(x)] == [1] * 8


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_carried_coordinates_round_trip(pairing, mode):
    # to_sectors carries each sector's slice to its representative's
    # coordinates (the plain permutation on the representatives) and
    # from_sectors brings it back: exact up to the rounding of sigma's 2 x 2 mix
    sp = build_spaces(1, 2, mode, pairing)
    x = np.random.default_rng(2).standard_normal(sp.n_V)
    V = sp.sectors[0]
    y = V.to_sectors(x)
    for r in (0, 1, 3, 7):
        assert np.array_equal(y[V.sectors[r]], x[V.order[V.sectors[r]]])
    assert_allclose(V.from_sectors(y), x, rtol=0, atol=1e-15 * np.abs(x).max())
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-14)


def _assert_signed_permutation(W):
    # one nonzero per row and column, +-1 up to the rounding of the basis tensors' entries
    assert np.all(np.count_nonzero(W, axis=0) == 1) and np.all(np.count_nonzero(W, axis=1) == 1)
    assert_allclose(np.abs(W[W != 0]), 1.0, rtol=0, atol=1e-15)


def test_swap_maps_from_basis_tensors_are_the_tabulated_maps_with_exact_zeros():
    # V's and Q's maps are bitwise the block-diagonal of the helpers' stress mix Om5, the
    # permutation P and the scalar 1; every map, the Korn fields' too (3D vectors and stf
    # tensors, planar stf tensors with their one swap), is <P X_r P^T, X_c> to rounding with
    # an exact zero wherever that is zero: a signed permutation but for the 2 x 2 mix of
    # sigma's two diagonal components, and diagonal for the planar stf basis
    sp = build_spaces(1, 1, "zero_mean")
    V, Q = sp.sectors
    tabulated = component_swap_maps(sp.E)
    assert set(V.swaps) == set(Q.swaps) == set(tabulated)
    for ab, (Om5, P) in tabulated.items():
        assert np.array_equal(V.swaps[ab], sla.block_diag(Om5, P, 1.0))
        assert np.array_equal(Q.swaps[ab], sla.block_diag(P, 1.0))
    diagonal = [b for b, X in enumerate(sp.E) if np.any(np.diagonal(X))]
    rest = [b for b in range(5) if b not in diagonal]
    assert len(diagonal) == 2
    for X, dim in ((np.eye(3), 3), (sp.E, 3), (stf_basis(2, 2), 2)):
        maps = swap_maps([X], dim)
        assert list(maps) == ([(0, 1)] if dim == 2 else [(0, 1), (0, 2), (1, 2)])
        for (a, b), W in maps.items():
            P = np.eye(dim)[[b if i == a else a if i == b else i for i in range(dim)]]
            moved = P @ X @ P.T if X.ndim == 3 else X @ P.T
            want = np.tensordot(X, moved, axes=(list(range(1, X.ndim)),) * 2)
            assert_allclose(W, want, rtol=0, atol=1e-15)
            assert np.array_equal(W != 0, np.abs(want) > 1e-12), (X.shape, a, b)
            if X.shape == (5, 3, 3):
                assert np.array_equal(W, tabulated[a, b][0])
                _assert_signed_permutation(W[np.ix_(rest, rest)])
                assert not np.any(W[np.ix_(rest, diagonal)]) and not np.any(W[np.ix_(diagonal, rest)])
            elif dim == 3:
                assert np.array_equal(W, P)
            else:
                _assert_signed_permutation(W)
                assert np.array_equal(W, np.diag(np.diagonal(W)))
