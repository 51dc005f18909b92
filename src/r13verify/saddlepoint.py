"""Brezzi constants, mixed solves and stability-bound verification.

All constants are measured on the assembled discrete system and reported
as measurements of that system, not as bounds for the continuous problem.
alpha0 and |A| are extreme eigenvalues found by Lanczos on matrix-free
operators, k0 and |B| dense singular values of the whitened constraint.
The unit cube's three mirror reflections and the split into momentum and
energy subproblem cut the system into 8 sectors of two parts each. The
swaps of the cube's axes map the sectors of one orbit onto each other,
by exact coefficient maps: {0}, {1, 2, 4}, {3, 5, 6} and {7}. In the
carried sector coordinates (spaces.Sectors) every sector of an orbit has
the same blocks, so the system holds one block of A per orbit and one
part per orbit and subproblem (assembly.SaddleStructure), and every
factorization, SVD and Lanczos run is made once per orbit. Each constant
counts an orbit's values once per sector of it, and the solve factors
one saddle matrix per orbit and solves the orbit's m sectors as m
right-hand sides of it. LAPACK is called directly, with the bits of
scipy's wrappers: potrf for each part's plain lower Cholesky factors of
M_V and M_Q (SaddlePart.factor), trtrs for every triangular solve with
them (assembly.trsolve), and stebz and stein for each Lanczos Ritz step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import KERNEL_RTOL, MixedSystem, SaddleOperator, trsolve
from .tensors import projection_matrix2

LANCZOS_RTOL = 1e-13  # relative Ritz residual at which the Lanczos iteration stops

_getrs, _stebz, _stein = sla.get_lapack_funcs(("getrs", "stebz", "stein"), (np.empty(0),))  # wrappers cost more


@dataclass(frozen=True)
class BrezziConstants:
    """Measured saddle-point constants of one assembled system."""

    alpha0: float
    k0: float
    norm_A: float
    norm_B: float
    dim_kerB: int
    dim_kerBT: int


@dataclass(frozen=True)
class MixedSolution:
    U: np.ndarray
    P: np.ndarray
    residual_primal: float
    residual_constraint: float
    norm_U: float
    norm_P: float
    bound_U: float | None
    bound_P: float | None

    @property
    def bounds_hold(self) -> bool:
        if self.bound_U is None or self.bound_P is None:
            raise ValueError("stability bounds were not computed for this solve")
        return self.norm_U <= self.bound_U and self.norm_P <= self.bound_P


def _top_ritz(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """(top eigenvalue, unit eigenvector) of the tridiagonal (d, e), bit for bit eigh_tridiagonal's."""
    if not (math.isfinite(d[-1]) and (d.size == 1 or math.isfinite(e[-1]))):  # each entry once, as added
        raise ValueError("Lanczos met a non-finite alpha or beta")
    if d.size == 1:  # eigh_tridiagonal's quick exit
        return d[0], np.ones(1)
    m, w, iblock, isplit, info = _stebz(d, e, 2, 0.0, 1.0, d.size, d.size, 0.0, "B")
    z, info = _stein(d, e, w[:m], iblock, isplit) if info == 0 else (None, info)
    if info:
        raise np.linalg.LinAlgError(f"stebz/stein failed in a Lanczos Ritz step: info {info}")
    return w[0], z[:, 0]


def _lanczos_max(apply, n: int) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite operator on R^n.

    Lanczos with full reorthogonalization from a fixed start vector, so the result
    repeats bit for bit. It stops when the residual of the leading Ritz pair falls below
    LANCZOS_RTOL times its value, which bounds the relative error of the eigenvalue by
    LANCZOS_RTOL, or when the Krylov space fills R^n. alpha and beta fill preallocated
    arrays, and each step's Ritz pair is one stebz and stein (`_top_ritz`): 3-16 us at
    2-40 steps on one core, where scipy's eigh_tridiagonal took 20-36 us.
    """
    Q = np.empty((min(n, 500), n))  # rows are touched only as the basis grows
    alpha, beta = np.empty((2, Q.shape[0]))
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    for j in range(Q.shape[0]):
        Q[j] = q
        w = apply(q)
        alpha[j] = q @ w
        for _ in range(2):  # twice is enough
            w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        theta, s = _top_ritz(alpha[: j + 1], beta[:j])
        b = np.linalg.norm(w)
        if b * abs(s[-1]) <= LANCZOS_RTOL * theta or j + 1 == n:
            return float(theta)
        beta[j] = b
        q = w / b
    raise RuntimeError(f"Lanczos did not converge in {Q.shape[0]} steps")


def _saddle_matrix(A: np.ndarray, constraints: list) -> np.ndarray:
    """[[A, C^T], [C, 0]] in Fortran order, to be factored in place. C stacks
    the constraints, given as (columns of A, rows of full rank) pairs."""
    nV = A.shape[0]
    n = nV + sum(C.shape[0] for _, C in constraints)
    K = np.zeros((n, n), order="F")
    K[:nV, :nV] = A
    row = nV
    for cols, C in constraints:
        K[row : row + C.shape[0], cols] = C
        K[cols, row : row + C.shape[0]] = C.T
        row += C.shape[0]
    return K


def _lu_in_place(K: np.ndarray):
    """(LU factors and pivots of K, reciprocal 1-norm condition estimate; 0 if singular)."""
    lange, getrf, gecon = sla.get_lapack_funcs(("lange", "getrf", "gecon"), (K,))
    anorm = lange("1", np.asarray_chkfinite(K))
    lu, piv, info = getrf(K, overwrite_a=True)
    rcond = gecon(lu, anorm, norm="1")[0] if info == 0 else 0.0
    return (lu, piv), rcond


def _sector_lus(op: SaddleOperator) -> list:
    """Per orbit, the LU of its saddle matrix [[A_o, C_o^T], [C_o, 0]], factored once per
    operator; C_o stacks the constraints of the orbit's two parts."""
    if op.factors is None:
        st = op.structure
        factors = [
            _lu_in_place(_saddle_matrix(A_o, [(st.V.parts[i], st.parts[i].constraint(st.ranks[i])) for i in (2 * o, 2 * o + 1)]))
            for o, A_o in enumerate(op.sectors)
        ]
        rcond = min(rc for _, rc in factors)
        if rcond == 0.0:
            raise ValueError("discrete pairing deficient: singular saddle matrix")
        if not rcond >= np.finfo(float).eps:  # scipy.linalg.solve's warning, once
            msg = f"An ill-conditioned saddle matrix detected: rcond = {rcond}."
            warnings.warn(msg, sla.LinAlgWarning, stacklevel=3)
        op.factors = [lu for lu, _ in factors]
    return op.factors


def _orbit_solve(L_V: list, x: np.ndarray, trans: int = 0) -> np.ndarray:
    """L_V^-1 x, or L_V^-T x for trans=1, for an orbit's factor L_V of M_V: its two parts'
    plain factors, as (V.parts slice, factor) pairs."""
    out = np.empty(x.shape)
    for sl, L in L_V:
        out[sl] = trsolve(L, x[sl], trans)
    return out


def _norm_A(op: SaddleOperator) -> float:
    """|A| in the M_V norm: the largest singular value of X = L_V^-1 A L_V^-T, by Lanczos
    on X^T X over the direct sum of the orbits' blocks, one sector of each. Each product
    takes four triangular solves per part; X is never formed."""
    st, terms, n = op.structure, [], 0
    for o, A_o in enumerate(op.sectors):
        L = [(st.V.parts[i], st.parts[i].cholesky[0]) for i in (2 * o, 2 * o + 1)]
        terms.append((A_o, L, slice(n, n + len(A_o))))
        n += len(A_o)

    def apply(x):
        y = np.empty(n)
        for A_s, L, sl in terms:
            z = _orbit_solve(L, A_s @ _orbit_solve(L, x[sl], trans=1))
            y[sl] = _orbit_solve(L, A_s.T @ _orbit_solve(L, z, trans=1))
        return y

    return float(np.sqrt(_lanczos_max(apply, n)))


def _coercivity(op: SaddleOperator) -> float:
    """alpha0 on ker B: 1 / lambda_max of x -> L_V^T [K_i^-1 (L_V x, 0)]_V over the parts.

    A is symmetric to the bit on each subproblem and skew between them, as
    assembled (`assembly._symmetrize`), so ker B, M_V and A's symmetric
    part split along the parts: the coercivity eigenproblem on ker B is
    the direct sum of one per part, and one Lanczos run on the direct sum
    gives the smallest constant. On part i,
    K_i = [[A_ii, C_i^T], [C_i, 0]] is its bordered matrix, with C_i of
    full row rank and kernel ker B_i. The operator equals
    L_V^T Z (Z^T A_ii Z)^-1 Z^T L_V for a basis Z of ker B_i, so its nonzero
    eigenvalues are the reciprocals of those of A_ii z = lambda M_V z on
    ker B_i (the coercivity eigenproblem of Chapelle & Bathe's inf-sup
    test). The forms make A_ii positive semidefinite. A singular K_i means
    a kernel direction on which A vanishes: alpha0 = 0. A part whose B
    block is injective has no say, and each part stands for every sector
    of its orbit: their eigenproblems are one, carried by the orthogonal
    maps of the axis swaps.
    """
    st, terms, n = op.structure, [], 0
    for i, (p, rank, lv) in enumerate(zip(st.parts, st.ranks, st.V.parts)):
        nV = lv.stop - lv.start
        if rank < nV:
            lu, rcond = _lu_in_place(_saddle_matrix(op.sectors[i // 2][lv, lv], [(slice(0, nV), p.constraint(rank))]))
            if not rcond >= np.finfo(float).eps:
                return 0.0
            terms.append((lu, p.cholesky[0], slice(n, n + nV), np.zeros(lu[0].shape[0])))
            n += nV

    def apply(x):
        y = np.empty(n)
        for lu, L_V, sl, rhs in terms:
            rhs[: sl.stop - sl.start] = L_V @ x[sl]
            y[sl] = L_V.T @ _getrs(*lu, rhs)[0][: sl.stop - sl.start]
        return y

    return 1.0 / _lanczos_max(apply, n)


def infsup_constant(system: MixedSystem):
    """Discrete inf-sup constant and the codimension of the range of B.

    k0 is the smallest singular value of B in the natural norms, taken off
    the nullspace of B transpose; dim_kerBT counts the singular values
    below the fixed cutoff KERNEL_RTOL (the report's `kernel_rank_cutoff`)
    and is expected to be zero.
    """
    st = system.operator.structure
    return (float(st.whitened_svals[st.rank - 1]) if st.rank else 0.0), st.whitened_svals.size - st.rank


def brezzi_constants(system: MixedSystem) -> BrezziConstants:
    """All measured constants of the assembled system.

    Each comes from the 8 parts (orbit x subproblem) and the 4 orbits'
    blocks of A, and is combined exactly: the axis swaps carry a sector's
    blocks onto the other sectors of its orbit by orthogonal maps, so an
    orbit's values count once per sector of it (once for {0} and {7},
    three times for {1, 2, 4} and {3, 5, 6}). One SVD of each part's
    block of B in the natural norms, cut once at KERNEL_RTOL (the report's
    `kernel_rank_cutoff`) times the whole B's largest singular value, gives
    k0 and dim ker B^T from the union of the singular values with those
    multiplicities, |B|, dim ker B from the ranks so weighted, and the
    constraint of full row rank behind each part's alpha0. alpha0 is the
    minimum over the parts, |A| the largest over the orbits' blocks of A
    with their factors of M_V; they take one Lanczos run each over the
    direct sum.
    """
    op = system.operator
    st = op.structure
    dim_kerB = st.V.order.size - st.rank
    if dim_kerB == 0:
        raise ValueError("trivial kernel")
    k0, dim_kerBT = infsup_constant(system)
    return BrezziConstants(
        alpha0=_coercivity(op),
        k0=k0,
        norm_A=_norm_A(op),
        norm_B=float(st.whitened_svals[0]),  # the SVD behind k0
        dim_kerB=dim_kerB,
        dim_kerBT=dim_kerBT,
    )


def solve_mixed(system: MixedSystem, constants: BrezziConstants | None = None) -> MixedSolution:
    """Direct solve of the indefinite block system with a posteriori bounds.

    When the discrete pairing is deficient (ker B^T nontrivial, which the
    equal-degree spaces here exhibit), the constraint load must lie in the
    range of B; the solve then runs on the quotient of Q by ker B^T and the
    returned pressure is the minimal-norm representative, mirroring the
    continuous statement that P is unique up to ker B^T. Inconsistent loads
    raise instead of silently producing a least-squares artifact.

    Given the measured constants, the solve also evaluates the stability
    estimates
        |U|_V <= (1/alpha0) |F|_V' + (|A|/alpha0 + 1) (1/k0) |G|_Q'
        |P|_Q <= (1/k0)(1 + |A|/alpha0) |F|_V' + (|A|/k0^2)(1 + |A|/alpha0) |G|_Q'
    with discrete dual norms and the quotient norm of P in the deficient
    case; without them the bound fields stay unset.

    Each part's one SVD L_Q^-1 B_i L_V^-T = U S V^T, split at its rank
    into U_r and U_k, gives the consistency test U_k^T L_Q^-1 G = 0, the
    constraint rows U_r^T L_Q^-1 G and, from the multipliers lam, the
    minimal pressure P = L_Q^-T U_r lam, through one map per orbit each way
    (SaddleStructure.load_maps). F and G are carried once into the carried
    sector coordinates (spaces.Sectors), where an orbit's m sectors are the
    m columns of one load matrix, and U and P are carried back once. Each
    orbit's saddle matrix is factored once per operator; a load then takes
    one pass per orbit: one product with Y, one getrs on the right-hand
    side built in place, one product with the orbit's block of A and, per
    part, the two products with its block of B, L_V^T u for |U| and
    L_V^-1 F for the dual norm of F, with the part's plain factor of M_V.
    |P| is |lam|, as |L_Q^T P| = |U_r lam| with U_r orthonormal, and the
    dual norm of G is |Y G|. The defect, the residual and the norm sums
    gather in that same pass; M_V and M_Q are not read. The residual of
    each row is relative to max(|load|, 1): F and G alike, so a load of
    rounding size in one row does not inflate that row's residual.
    """
    op = system.operator
    st = op.structure
    V, Q = st.V, st.Q
    f, g = V.to_sectors(system.F), Q.to_sectors(system.G)
    u, p = np.empty(f.shape), np.empty(g.shape)  # carried U and P, filled orbit by orbit
    defect = g_dual = f_dual = res1 = res2 = norm_U = norm_P = 0.0  # all squared until the end
    orbits = zip(_sector_lus(op), op.sectors, st.load_maps, V.split(f), Q.split(g), V.split(u), Q.split(p))
    for o, ((lu, piv), A_o, (Y, Z), F_o, G_o, u_o, p_o) in enumerate(orbits):
        F_o, G_o, nV, rank = F_o.T, G_o.T, len(A_o), Z.shape[1]  # one column per sector
        y = Y @ G_o
        defect, g_dual = defect + np.vdot(y[rank:], y[rank:]), g_dual + np.vdot(y, y)
        rhs = np.empty((nV + rank, F_o.shape[1]), order="F")
        rhs[:nV], rhs[nV:] = F_o, y[:rank]
        X = _getrs(lu, piv, rhs, overwrite_b=1)[0]
        U_o, lam = X[:nV], X[nV:]
        P_o = Z @ lam
        norm_P += np.vdot(lam, lam)  # |L_Q^T P| = |U_r lam| = |lam|, U_r having orthonormal columns
        R1, R2, W = A_o @ U_o - F_o, -G_o, np.empty(F_o.shape)  # W = L_V^-1 F_o
        for i in (2 * o, 2 * o + 1):
            part, lv, lq = st.parts[i], V.parts[i], Q.parts[i]
            R1[lv] += part.B.T @ P_o[lq]
            R2[lq] += part.B @ U_o[lv]
            L = part.cholesky[0]
            W_V, W[lv] = L.T @ U_o[lv], trsolve(L, F_o[lv])
            norm_U += np.vdot(W_V, W_V)
        res1, res2, f_dual = res1 + np.vdot(R1, R1), res2 + np.vdot(R2, R2), f_dual + np.vdot(W, W)
        u_o[...], p_o[...] = U_o.T, P_o.T
    f_dual, g_dual = np.sqrt(f_dual), np.sqrt(g_dual)  # |L_V^-1 F| and |L_Q^-1 G|
    if np.sqrt(defect) > KERNEL_RTOL * max(g_dual, 1.0):
        raise ValueError(f"discrete pairing deficient: load not in range(B) (dim ker B^T = {g.size - st.rank})")
    res1, res2 = np.sqrt(res1) / max(np.sqrt(f @ f), 1.0), np.sqrt(res2) / max(np.sqrt(g @ g), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        a0, k0, na = constants.alpha0, constants.k0, constants.norm_A
        bound_U = float(f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual)
        bound_P = float((1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual)
    U, P = V.from_sectors(u), Q.from_sectors(p)
    return MixedSolution(U, P, float(res1), float(res2), float(np.sqrt(norm_U)), float(np.sqrt(norm_P)), bound_U, bound_P)


def limit_consistency(U: np.ndarray, P: np.ndarray, system: MixedSystem):
    """Distance of the solved fields from the Stokes and Fourier closures.

    res_NS = |sigma + 2 Kn stf D u| / max(|sigma|, Kn) and
    res_Fourier = |s + (15/4) Kn grad theta| / max(|s|, Kn), all in L2,
    with u and theta taken from their discrete polynomial representatives.
    """
    spaces, kn = system.spaces, system.params.kn
    w = spaces.scalar.weights
    sig, s = (spaces.evaluate(name, U) for name in ("sigma", "s"))
    du, grad_th = (spaces.evaluate(name, P=P, grad=True) for name in ("u", "theta"))
    stf_du = (du.reshape(w.size, 9) @ projection_matrix2("stf", 3).T).reshape(sig.shape)

    def l2(x):
        return np.sqrt(np.sum(w * np.sum(x.reshape(w.size, -1) ** 2, axis=1)))

    res_ns = float(l2(sig + 2.0 * kn * stf_du) / max(l2(sig), kn))
    res_fourier = float(l2(s + (15.0 / 4.0) * kn * grad_th) / max(l2(s), kn))
    return res_ns, res_fourier
