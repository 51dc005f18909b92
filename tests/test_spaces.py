import numpy as np
import pytest
from numpy.testing import assert_allclose

from r13verify.assembly import ModelParams, _B_terms, _norm_terms, _sector_assemble, assemble_system
from r13verify.spaces import PAIRINGS, Basis1D, BubbleBasis, ScalarBasis, Sectors, build_spaces

from helpers import kron_gram, mirror_maps


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
            m = sp.scalar_pq.n
            assert sp.Cp.shape == (m, m - 1) and sp.n_p == m - 1
            assert np.all(np.isfinite(sp.Cp))
            assert_allclose(sp.Cp.T @ sp.Cp, np.eye(sp.n_p), atol=1e-13)
            # every admissible pressure has zero mean
            assert np.linalg.norm(sp.scalar_pq.integrals() @ sp.Cp) < 1e-12
            # the columns are sorted by sector, and each lies inside its own sector
            assert np.all(np.diff(sp.p_sectors) >= 0)
            coordinate_sectors = sp.scalar_pq.sectors(0).ravel()
            assert not np.any(sp.Cp[coordinate_sectors[:, None] != sp.p_sectors[None, :]])


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
        assert np.array_equal(plain.to_sectors(x), x[S.order])
        assert np.array_equal(plain.from_sectors(plain.to_sectors(x)), x)


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("mode", ["zero_mean", "full"])
def test_one_sector_layout_serves_sectors_and_parts(pairing, mode):
    # the parts tile each sector s as part 2 s (momentum) then 2 s + 1 (energy);
    # the momentum parts hold exactly sigma and p of V and u of Q; the blocks
    # assembled by part are bitwise the part-diagonal sub-blocks of the blocks
    # assembled by sector, whose other sub-blocks are zero, on every sector
    # (the layout without the axis swaps, so each sector is assembled)
    spaces = build_spaces(2, 1, mode, pairing)
    V, Q = spaces.sectors
    structure = assemble_system(spaces, ModelParams()).operator.structure
    assert structure.V is V and structure.Q is Q
    vb, qb = spaces.v_blocks, spaces.q_blocks
    subproblems = ((np.r_[vb["sigma"], vb["p"]], np.r_[vb["s"]]), (np.r_[qb["u"]], np.r_[qb["theta"]]))
    for S, coords in zip((V, Q), subproblems):
        assert len(S.sectors) == 8 and len(S.parts) == 16
        assert [p.start for p in S.parts[1:]] == [p.stop for p in S.parts[:-1]]
        assert S.parts[0].start == 0 and S.parts[-1].stop == S.order.size
        for s, sl in enumerate(S.sectors):
            assert (S.parts[2 * s].start, S.parts[2 * s + 1].stop) == (sl.start, sl.stop)
        for sub, want in enumerate(coords):
            got = np.concatenate([S.order[sl] for sl in S.parts[sub::2]])
            assert np.array_equal(np.sort(got), want)
    h1, l2 = _norm_terms(len(V.fields), h1=True), _norm_terms(len(Q.fields), h1=False)
    V, Q = Sectors(V.fields), Sectors(Q.fields)
    for terms, rows, cols in ((_B_terms(spaces), Q, V), (h1, V, V), (l2, Q, Q)):
        by_sector = _sector_assemble(terms, rows, cols, {})
        by_part = _sector_assemble(terms, rows, cols, {}, by_part=True)
        assert len(by_part) == 16 and len({id(X) for X in by_part}) == 16
        for s, X in enumerate(by_sector):
            r0, c0 = rows.sectors[s].start, cols.sectors[s].start
            for i, j in ((2 * s, 2 * s), (2 * s, 2 * s + 1), (2 * s + 1, 2 * s), (2 * s + 1, 2 * s + 1)):
                r, c = rows.parts[i], cols.parts[j]
                block = X[r.start - r0 : r.stop - r0, c.start - c0 : c.stop - c0]
                if i == j:
                    assert np.array_equal(block, by_part[i])
                else:
                    assert not np.any(block)


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_evaluate_returns_projected_polynomials_and_their_gradients(pairing):
    # polynomials projected onto each pairing's own bases come back, with their
    # exact gradients, at the volume points and at one face's points; p = x - 1/2
    # has zero mean and enters through Cp
    sp = build_spaces(2, 1, "zero_mean", pairing)
    sb, pb = sp.scalar, sp.scalar_pq
    U, P = np.zeros(sp.n_V), np.zeros(sp.n_Q)
    sig, s = U[sp.v_blocks["sigma"]].reshape(5, -1), U[sp.v_blocks["s"]].reshape(3, -1)
    u, theta = P[sp.q_blocks["u"]].reshape(3, -1), P[sp.q_blocks["theta"]]
    sig[0], sig[3] = sb.project(lambda q: q[:, 2] ** 2), sb.project(lambda q: q[:, 0] * q[:, 1])
    s[1] = sb.project(lambda q: q[:, 0] * q[:, 1])
    U[sp.v_blocks["p"]] = sp.Cp.T @ pb.project(lambda q: q[:, 0] - 0.5)
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
    # from sector 2 to sector 4: sectors 2 and 4 no longer have the part
    # sizes of their representative, sector 1, and the constructor says so
    # before it builds any map; without the swaps the same fields build
    sp = build_spaces(1, 1, mode)
    V = sp.sectors[0]
    *pressure, labels, sub = V.fields[-1]
    moved = labels.copy()
    moved.flat[np.flatnonzero(moved.ravel() == 2)[0]] = 4
    fields = V.fields[:-1] + [(*pressure, moved, sub)]
    with pytest.raises(ValueError, match="part sizes"):
        Sectors(fields, V.swaps)
    assert Sectors(fields).representative == list(range(8))


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
