"""Independent brute-force oracles shared by the test modules.

The tensor oracles are deliberately written as plain index loops, separate
from any vectorized library code they are used to check. The Brezzi
constants oracle uses full dense decompositions (SVD of B, eigh on ker B,
SVD of the whitened forms), the path the library replaced by Lanczos. The
forms oracle assembles every form densely from quadrature sums over the
tabulated basis functions, the path the library replaced by Kronecker
products of 1D factors assembled straight into mirror-sector blocks. The
Korn grams oracle forms the whole dense Kronecker products, and the
ellipticity oracle takes an SVD of every sampled symbol. The wall-relation
oracle evaluates the Onsager relations one face point at a time.
"""

import numpy as np
import scipy.linalg as sla


def stf_gradient_symbol_direct(T: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Symbol of the symmetric trace-free gradient on an stf 2-tensor T.

    Loop implementation of the closed-form entries
        (T_ij xi_k + T_ik xi_j + T_jk xi_i)/3
        - 2/(3(d+2)) * ((T xi)_k d_ij + (T xi)_j d_ik + (T xi)_i d_jk),
    valid when T is symmetric and trace-free.
    """
    T = np.asarray(T)
    xi = np.asarray(xi)
    d = T.shape[0]
    c = 2.0 / (3.0 * (d + 2))
    Txi = T @ xi
    out = np.zeros((d, d, d), dtype=np.result_type(T, xi))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                val = (T[i, j] * xi[k] + T[i, k] * xi[j] + T[j, k] * xi[i]) / 3.0
                val -= c * (
                    Txi[k] * (i == j) + Txi[j] * (i == k) + Txi[i] * (j == k)
                )
                out[i, j, k] = val
    return out


def sym3_direct(T: np.ndarray) -> np.ndarray:
    """Rank-3 symmetrization by explicit enumeration of the 6 index orders."""
    d = T.shape[0]
    out = np.zeros_like(np.asarray(T))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[i, j, k] = (
                    T[i, j, k] + T[j, k, i] + T[k, i, j]
                    + T[j, i, k] + T[i, k, j] + T[k, j, i]
                ) / 6.0
    return out


def random_stf2(rng: np.random.Generator, d: int = 3, complex_valued: bool = False) -> np.ndarray:
    """Random symmetric trace-free rank-2 tensor."""
    M = rng.standard_normal((d, d))
    if complex_valued:
        M = M + 1j * rng.standard_normal((d, d))
    M = 0.5 * (M + M.T)
    return M - (np.trace(M) / d) * np.eye(d)


# -- dense oracle of the Brezzi constants -------------------------------------


def _rank(svals: np.ndarray, tol: float) -> int:
    if tol <= 0:
        raise ValueError("tol must be positive")
    return int(np.sum(svals > tol * svals[0])) if svals.size and svals[0] > 0 else 0


def kernel_basis(system, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of the constraint matrix (full SVD)."""
    _, svals, Vh = sla.svd(system.B, full_matrices=True)
    return Vh[_rank(svals, tol):].T


def cokernel_basis(system, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of B transpose (full SVD)."""
    _, svals, Vh = sla.svd(system.B.T, full_matrices=True)
    return Vh[_rank(svals, tol):].T


def coercivity_constant(system, Z: np.ndarray):
    """Smallest Rayleigh quotient of the symmetrized primal form on span Z.

    Returns (alpha0, extremizer in V coordinates) from the dense projected
    pencil (Z^T A_s Z, Z^T M_V Z).
    """
    if Z.size == 0 or Z.shape[1] == 0:
        raise ValueError("trivial kernel")
    As = 0.5 * (system.A + system.A.T)
    vals, vecs = sla.eigh(Z.T @ As @ Z, Z.T @ system.M_V @ Z)
    return float(vals[0]), Z @ vecs[:, 0]


def gram_svals(form: np.ndarray, left_gram: np.ndarray, right_gram: np.ndarray) -> np.ndarray:
    """All singular values of a form in the given norms, descending (dense SVD)."""
    Ll = sla.cholesky(left_gram, lower=True)
    Lr = sla.cholesky(right_gram, lower=True)
    K = sla.solve_triangular(Ll, form, lower=True)
    K = sla.solve_triangular(Lr, K.T, lower=True).T
    return sla.svd(K, compute_uv=False)


def dense_brezzi_constants(system, tol: float = 1e-10) -> dict:
    """alpha0, k0, |A|, |B| and both dimensions from full dense decompositions."""
    Z = kernel_basis(system, tol)
    svals_B = gram_svals(system.B, system.M_Q, system.M_V)
    rank = _rank(svals_B, tol)
    return {
        "alpha0": coercivity_constant(system, Z)[0],
        "k0": float(svals_B[rank - 1]),
        "norm_A": float(gram_svals(system.A, system.M_V, system.M_V)[0]),
        "norm_B": float(svals_B[0]),
        "dim_kerB": Z.shape[1],
        "dim_kerBT": svals_B.size - rank,
    }


def dense_mixed_solution(system, tol: float = 1e-10):
    """(U, P) of the whole saddle matrix by one dense solve, P of minimal M_Q norm.

    Solves [[A, B^T W], [W^T B, 0]] for an orthonormal basis W of range(B)
    from a full SVD of B^T, then removes from P = W mu its M_Q-orthogonal
    projection onto the cokernel ker B^T.
    """
    _, svals, Vh = sla.svd(system.B.T, full_matrices=True)
    rank = _rank(svals, tol)
    W, Y = Vh[:rank].T, Vh[rank:].T
    C = W.T @ system.B
    nV = system.A.shape[0]
    K = np.block([[system.A, C.T], [C, np.zeros((rank, rank))]])
    sol = sla.solve(K, np.concatenate([system.F, W.T @ system.G]))
    U, P = sol[:nV], W @ sol[nV:]
    MQ = system.M_Q
    P = P - Y @ np.linalg.solve(Y.T @ MQ @ Y, Y.T @ MQ @ P)
    return U, P


# -- dense Kronecker oracle of the Korn grams ----------------------------------


def kron_gram(sb, names) -> np.ndarray:
    """Dense pair matrix of a scalar basis: the Kronecker product of its 1D parity
    factors (ScalarBasis.factors) named per axis, e.g. "mmm" for the mass."""
    out = np.ones((1, 1))
    for name in names:
        out = np.kron(out, sb.factors()[name])
    return out


def dense_korn_grams(op, sb):
    """(H1, L2, projected-gradient) grams of op's field over sb as whole dense matrices,
    the component blocks in domain-basis order: the H1 and L2 grams as kron(I, .), the
    gradient gram with block (a, b) = sum_kl H[a,k,b,l] dmat(k, l)."""
    from r13verify.ellipticity import domain_basis, gradient_coupling
    from r13verify.spaces import dmat_names

    d, nc = sb.dim, domain_basis(op).shape[0]
    dmat = {(k, l): kron_gram(sb, dmat_names(k, l, d)) for k in range(d) for l in range(d)}
    H = gradient_coupling(op)
    H = np.where(np.abs(H) > 1e-15, H, 0.0)
    grad = sum(np.kron(H[:, k, :, l], dmat[k, l]) for k in range(d) for l in range(d))
    mass = kron_gram(sb, "m" * d)
    h1 = mass + sum(dmat[a, a] for a in range(d))
    return np.kron(np.eye(nc), h1), np.kron(np.eye(nc), mass), grad


# -- SVD-only oracle of the ellipticity verdicts -------------------------------


def svd_smins(op, xis, n_real):
    """Least singular value of the symbol at each row of xis by an SVD of every one, the
    real rows (the first n_real) as real matrices: the path the Gram screen replaced."""
    from r13verify.ellipticity import symbol_coefficients

    coeffs = symbol_coefficients(op)
    return np.concatenate([
        np.linalg.svd(np.tensordot(xis[:n_real].real, coeffs, axes=1), compute_uv=False)[:, -1],
        np.linalg.svd(np.tensordot(xis[n_real:], coeffs, axes=1), compute_uv=False)[:, -1],
    ])


def svd_ellipticity_oracle(op, xis, n_real):
    """(least singular value, its row, witness residual) over the symbols at xis from
    `svd_smins`."""
    from r13verify.ellipticity import symbol_coefficients

    coeffs = symbol_coefficients(op)
    smins = svd_smins(op, xis, n_real)
    idx = int(np.argmin(smins))
    mat = np.tensordot(xis[idx], coeffs, axes=1)
    coords = np.linalg.svd(mat)[2][-1].conj()
    return float(smins[idx]), idx, float(np.linalg.norm(mat @ coords) / np.linalg.norm(coords))


# -- dense oracle of the zero-mean pressure transform --------------------------


def dense_Cp(spaces) -> np.ndarray:
    """The pressure's coordinate transform p = Cp q as one dense (m, n_p) matrix, built from
    scalar_pq alone, without the spaces' keep list and sector-0 block: in 'full' mode the
    identity; in 'zero_mean' the identity with its fully even class (sector 0) replaced by
    the Householder reflection that maps the class's first function onto the integrals of
    scalar_pq, without that column, so the columns are an orthonormal basis of the
    zero-mean coefficients, in the order of the functions."""
    pb = spaces.scalar_pq
    C = np.eye(pb.n)
    if spaces.pressure_mode == "full":
        return C
    integrals, even = pb.integrals(), np.flatnonzero(pb.sectors(0).ravel() == 0)
    x = integrals[even] / np.linalg.norm(integrals[even])
    u = x.copy()
    u[0] += 1.0 if x[0] >= 0 else -1.0
    u /= np.linalg.norm(u)
    C[np.ix_(even, even)] -= 2.0 * np.outer(u, u)
    return np.delete(C, even[0], axis=1)


# -- mirror maps of the unit cube ---------------------------------------------


def mirror_maps(spaces) -> list:
    """(Omega_V, Omega_Q) per axis a: the coefficient maps of the reflection x_a -> 1 - x_a.

    Built from tabulations only: the 1D map R solves phi(1 - x) = phi(x) R
    by least squares at sample points, phi the 1D factors of a scalar basis
    (its nodal functions times T1), sigma's components mix by
    <R E_b R, E_c> without assuming that the stress basis is mapped to
    itself, a vector component flips where it points along the axis, and
    the pressure map goes through the coefficient transform Cp (dense_Cp).
    """
    x = np.linspace(0.0, 1.0, 41)

    def reflection3d(sb, a):
        R = np.linalg.lstsq(sb.b1.evaluate(x) @ sb.T1, sb.b1.evaluate(1.0 - x) @ sb.T1, rcond=None)[0]
        out = np.ones((1, 1))
        for b in range(3):
            out = np.kron(out, R if b == a else np.eye(sb.b1.n))
        return out

    maps, Cp = [], dense_Cp(spaces)
    for a in range(3):
        R3, R3q = reflection3d(spaces.scalar, a), reflection3d(spaces.scalar_pq, a)
        S = np.diag(np.where(np.arange(3) == a, -1.0, 1.0))
        Om5 = np.einsum("bij,ik,jl,ckl->bc", spaces.E, S, S, spaces.E)
        Omega_V = sla.block_diag(np.kron(Om5, R3), np.kron(S, R3), Cp.T @ R3q @ Cp)
        Omega_Q = sla.block_diag(np.kron(S, R3q), R3q)
        maps.append((Omega_V, Omega_Q))
    return maps


def component_swap_maps(E) -> dict:
    """(Om5, P) per axis swap (a, b): P exchanges x_a and x_b, and Om5 mixes the components
    of a stress in the basis E as P sigma P^T does, Om5[c, b] = <P E_b P^T, E_c>."""
    maps = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        P = np.eye(3)[[b if i == a else a if i == b else i for i in range(3)]]
        maps[a, b] = (np.einsum("ki,bij,lj,ckl->cb", P, E, P, E), P)
    return maps


def permutation_maps(spaces) -> dict:
    """(Omega_V, Omega_Q) per axis swap (a, b): the coefficient maps of x -> P x, P exchanging x_a and x_b.

    Built from tabulations only: the scalar map R solves phi(P x) = phi(x) R
    by least squares at scattered sample points, phi the tensor product of
    a scalar basis's 1D factors (its nodal functions times T1), one shared
    factor per axis; sigma's components mix by <P E_b P, E_c>, a vector's
    components are permuted by P, and the pressure map goes through the
    coefficient transform Cp (dense_Cp).
    """
    rng = np.random.default_rng(5)

    def tabulate(sb, pts):
        out = np.ones((pts.shape[0], 1))
        for a in range(3):
            F = sb.b1.evaluate(pts[:, a]) @ sb.T1
            out = (out[:, :, None] * F[:, None, :]).reshape(pts.shape[0], -1)
        return out

    maps, Cp = {}, dense_Cp(spaces)
    for (a, b), (Om5, P) in component_swap_maps(spaces.E).items():
        perm = [b if i == a else a if i == b else i for i in range(3)]
        R3, R3q = (
            np.linalg.lstsq(tabulate(sb, pts), tabulate(sb, pts[:, perm]), rcond=None)[0]
            for sb in (spaces.scalar, spaces.scalar_pq)
            for pts in [rng.random((3 * sb.n, 3))]
        )
        Omega_V = sla.block_diag(np.kron(Om5, R3), np.kron(P, R3), Cp.T @ R3q @ Cp)
        Omega_Q = sla.block_diag(np.kron(P, R3q), R3q)
        maps[a, b] = (Omega_V, Omega_Q)
    return maps


# -- tabulated oracle of the assembled matrices -------------------------------


class Tabulated:
    """The pair matrices of a scalar basis as quadrature sums over its tabulations,
    the way they were assembled before the Kronecker-product path."""

    def __init__(self, sb):
        self.sb = sb

    def mass(self):
        sb = self.sb
        return sb.phi.T @ (sb.weights[:, None] * sb.phi)

    def dmat(self, a, b):
        sb = self.sb
        return sb.dphi[a].T @ (sb.weights[:, None] * sb.dphi[b])

    def vmat(self, b, trial=None):
        sb = self.sb
        trial = sb if trial is None else trial
        return sb.phi.T @ (sb.weights[:, None] * trial.dphi[b])

    def h1(self):
        return self.mass() + sum(self.dmat(a, a) for a in range(self.sb.dim))

    def face_mass(self, f, trial=None):
        fd = self.sb.faces[f]
        trial = self.sb if trial is None else trial
        return fd.phi.T @ (fd.weights[:, None] * trial.faces[f].phi)


def _blk(M, bi, bj, nr, nc):
    return M[bi * nr : (bi + 1) * nr, bj * nc : (bj + 1) * nc]


def oracle_forms(spaces, params) -> dict:
    """Every sub-form and assembled matrix of assembly.assemble_form, built from
    tabulated quadrature sums (Tabulated) into dense matrices."""
    from r13verify.assembly import STF_GRADIENT
    from r13verify.ellipticity import gradient_coupling

    sb, pb = spaces.scalar, spaces.scalar_pq
    ts, tp = Tabulated(sb), Tabulated(pb)
    n, m = sb.n, pb.n
    E, Cp, weights = spaces.E, dense_Cp(spaces), spaces.stress_face_weights
    frames = [fd.frame for fd in sb.faces]
    kn, chi, eps = params.kn, params.chi_tilde, params.epsilon_w
    grad_sum = sum(ts.dmat(al, al) for al in range(3))

    a = np.zeros((3 * n, 3 * n))
    for i in range(3):
        for j in range(3):
            blk = _blk(a, i, j, n, n)
            if i == j:
                blk += 0.5 * (24.0 / 25.0) * kn * grad_sum + (4.0 / 15.0) / kn * ts.mass()
            blk += 0.5 * (24.0 / 25.0) * kn * ts.dmat(j, i) + (12.0 / 25.0) * kn * ts.dmat(i, j)
            for f, fr in enumerate(frames):
                w = 0.5 / chi * fr.n[i] * fr.n[j] + (12.0 / 25.0) * chi * (fr.t1[i] * fr.t1[j] + fr.t2[i] * fr.t2[j])
                blk += w * ts.face_mass(f)

    c = np.zeros((3 * n, 5 * n))
    for i in range(3):
        for al_a in range(5):
            blk = _blk(c, i, al_a, n, n)
            for al in range(3):
                blk += (2.0 / 5.0) * E[al_a, i, al] * ts.vmat(al).T
            for f, (fr, w) in enumerate(zip(frames, weights)):
                coeff = -(3.0 / 20.0) * fr.n[i] * w["nn"][al_a] - (1.0 / 5.0) * (fr.t1[i] * w["nt1"][al_a] + fr.t2[i] * w["nt2"][al_a])
                blk += coeff * ts.face_mass(f)

    H = gradient_coupling(STF_GRADIENT)
    d = np.zeros((5 * n, 5 * n))
    for x in range(5):
        for y in range(5):
            blk = _blk(d, x, y, n, n)
            for k in range(3):
                for l in range(3):
                    if abs(H[x, k, y, l]) > 1e-15:
                        blk += kn * H[x, k, y, l] * ts.dmat(k, l)
        _blk(d, x, x, n, n)[...] += 0.5 / kn * ts.mass()
    for f, w in enumerate(weights):
        w_tot = w["t1t1"] + 0.5 * w["nn"]
        comp = (9.0 / 8.0 + eps) * chi * np.outer(w["nn"], w["nn"]) + chi * np.outer(w_tot, w_tot)
        comp += chi * np.outer(w["t1t2"], w["t1t2"])
        comp += (1.0 / chi) * (np.outer(w["nt1"], w["nt1"]) + np.outer(w["nt2"], w["nt2"]))
        d += np.kron(comp, ts.face_mass(f))

    raw_f, raw_h = np.zeros((m, 5 * n)), np.zeros((m, m))
    for f, w in enumerate(weights):
        raw_f += eps * chi * np.kron(w["nn"][None, :], tp.face_mass(f, sb))
        raw_h += eps * chi * tp.face_mass(f)
    f_form, h = Cp.T @ raw_f, Cp.T @ raw_h @ Cp
    b = np.hstack([tp.vmat(j, sb) for j in range(3)])
    e = np.zeros((3 * m, 5 * n))
    for i in range(3):
        for x in range(5):
            for al in range(3):
                _blk(e, i, x, m, n)[...] += E[x, i, al] * tp.vmat(al, sb)
    g = Cp.T @ np.hstack([tp.vmat(i).T for i in range(3)])

    vb, qb = spaces.v_blocks, spaces.q_blocks
    A = np.zeros((spaces.n_V, spaces.n_V))
    for block, M in (("s", a), ("sigma", d), ("p", h)):
        A[vb[block], vb[block]] = 0.5 * (M + M.T)
    A[vb["sigma"], vb["s"]], A[vb["s"], vb["sigma"]] = c.T, -c
    A[vb["sigma"], vb["p"]], A[vb["p"], vb["sigma"]] = f_form.T, f_form
    B = np.zeros((spaces.n_Q, spaces.n_V))
    B[qb["u"], vb["sigma"]], B[qb["u"], vb["p"]], B[qb["theta"], vb["s"]] = -e, -g.T, -b
    MV = sla.block_diag(*[ts.h1()] * 8, Cp.T @ tp.h1() @ Cp)
    MQ = sla.block_diag(*[tp.mass()] * 4)
    dbar = np.block([[d, f_form.T], [f_form, h]])
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f_form, "g": g, "h": h, "dbar": dbar,
            "A": A, "B": B, "MV": MV, "MQ": MQ}


# -- point-by-point oracle of the wall relations -------------------------------


def wall_residuals_oracle(U, P, spaces, params, bdata) -> dict:
    """The seven Onsager wall-relation norms of assembly.bc_residuals, one face point at a time.

    Every trace is a plain sum over the face tabulations (phi, dphi) of the
    field's basis, the closures m, R and Delta are projected per point with
    tensors.project3/project2, and every frame component comes from
    tensors.frame_components/frame_components3.
    """
    from r13verify.tensors import frame_components, frame_components3, project2, project3

    kn, chi, eps = params.kn, params.chi_tilde, params.epsilon_w
    sig, s, p = spaces.split_V(np.asarray(U))
    u, theta = spaces.split_Q(np.asarray(P))
    sq = np.zeros(7)
    for f, fd in enumerate(spaces.faces):
        fq = spaces.scalar_pq.faces[f]
        for q in range(fd.weights.size):
            sig_q = sum((sig[a] @ fd.phi[q]) * spaces.E[a] for a in range(5))
            dsig = np.zeros((3, 3, 3))
            ds = np.zeros((3, 3))
            for k in range(3):
                dsig[:, :, k] = sum((sig[a] @ fd.dphi[k, q]) * spaces.E[a] for a in range(5))
                for i in range(3):
                    ds[i, k] = s[i] @ fd.dphi[k, q]
            m = frame_components3(-2.0 * kn * project3(dsig, "Stf"), fd.frame)
            R = frame_components(-(24.0 / 5.0) * kn * project2(ds, "stf"), fd.frame)
            delta = -12.0 * kn * np.trace(ds)
            sg = frame_components(sig_q, fd.frame)
            sv = frame_components(np.array([s[i] @ fd.phi[q] for i in range(3)]), fd.frame)
            uv = frame_components(np.array([u[i] @ fq.phi[q] for i in range(3)]), fd.frame)
            dth = theta @ fq.phi[q] - bdata.theta_w[f]
            du = {t: uv[t] - getattr(bdata, f"u_{t}_w")[f] for t in ("t1", "t2")}
            r = [
                [(uv["n"] - bdata.u_n_w[f]) - eps * chi * ((p @ fq.phi[q] - bdata.p_w[f]) + sg["nn"])],
                [sg[f"n{t}"] - chi * (du[t] + 0.2 * sv[t] + m[f"nn{t}"]) for t in ("t1", "t2")],
                [R[f"n{t}"] - chi * (-du[t] + 2.2 * sv[t] - m[f"nn{t}"]) for t in ("t1", "t2")],
                [sv["n"] - chi * (2.0 * dth + 0.5 * sg["nn"] + 0.4 * R["nn"] + (2.0 / 15.0) * delta)],
                [m["nnn"] - chi * (-0.4 * dth + 1.4 * sg["nn"] - 0.08 * R["nn"] - (2.0 / 75.0) * delta)],
                [0.5 * m["nnn"] + m["nt1t1"] - chi * (0.5 * sg["nn"] + sg["t1t1"])],
                [m["nt1t2"] - chi * sg["t1t2"]],
            ]
            for k, terms in enumerate(r):
                sq[k] += fd.weights[q] * sum(x**2 for x in terms)
    keys = ("normal_velocity", "tangential_stress", "tangential_R", "normal_heat_flux", "m_nnn", "m_nnn_t1t1", "m_nt1t2")
    return dict(zip(keys, np.sqrt(sq)))
