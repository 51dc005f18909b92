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
right-hand sides of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import KERNEL_RTOL, MixedSystem, SaddleOperator
from .tensors import projection_matrix2

LANCZOS_RTOL = 1e-13  # relative Ritz residual at which the Lanczos iteration stops

(_getrs,) = sla.get_lapack_funcs(("getrs",), (np.empty(0),))


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


def _lanczos_max(apply, n: int) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite operator on R^n.

    Lanczos with full reorthogonalization from a fixed start vector, so the
    result repeats bit for bit. It stops when the residual of the leading
    Ritz pair falls below LANCZOS_RTOL times its value, which bounds the
    relative error of the eigenvalue by LANCZOS_RTOL, or when the Krylov
    space fills R^n.
    """
    Q = np.empty((min(n, 500), n))  # rows are touched only as the basis grows
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for j in range(Q.shape[0]):
        Q[j] = q
        w = apply(q)
        alpha.append(q @ w)
        for _ in range(2):  # twice is enough
            w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        theta, s = sla.eigh_tridiagonal(alpha, beta, select="i", select_range=(j, j))
        b = np.linalg.norm(w)
        if b * abs(s[-1, 0]) <= LANCZOS_RTOL * theta[0] or j + 1 == n:
            return float(theta[0])
        beta.append(b)
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


def _lu_solve(lu: tuple, b: np.ndarray) -> np.ndarray:  # LAPACK getrs: scipy's lu_solve costs more here
    return _getrs(*lu, b)[0]


def _norm_A(op: SaddleOperator) -> float:
    """|A| in the M_V norm: the largest singular value of X = L_V^-1 A L_V^-T, by Lanczos
    on X^T X over the direct sum of the orbits' blocks, one sector of each. Each product
    takes four block triangular solves per orbit; X is never formed."""
    terms, n = [], 0
    for A_o, L in zip(op.sectors, op.structure.L_V):
        terms.append((A_o, L, slice(n, n + len(A_o))))
        n += len(A_o)

    def apply(x):
        y = np.empty(n)
        for A_s, L, sl in terms:
            z = L.solve(A_s @ L.solve(x[sl], trans=1))
            y[sl] = L.solve(A_s.T @ L.solve(z, trans=1))
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
            rhs[: sl.stop - sl.start] = L_V.matvec(x[sl])
            y[sl] = L_V.matvec(_lu_solve(lu, rhs)[: sl.stop - sl.start], trans=1)
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
    return _infsup(st.whitened_svals, st.rank)


def _infsup(svals: np.ndarray, rank: int):
    return (float(svals[rank - 1]) if rank else 0.0), svals.size - rank


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
    k0, dim_kerBT = _infsup(st.whitened_svals, st.rank)
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
    (SaddleStructure.load_maps). Everything runs in the carried sector
    coordinates (spaces.Sectors): F and G are carried in once (an index
    gather, plus the 2 x 2 mix of sigma's diagonal pair for F), an
    orbit's m sectors are the m columns of one load matrix, each orbit's
    saddle matrix is factored once per operator and back-substituted once
    per load for all m columns, and U and P are carried back once. The
    residuals are matrix products with the orbits' blocks of A and the
    parts' blocks of B, and |U| and |P| are |L_V^T u| and |L_Q^T p| with
    the parts' factors; M_V and M_Q themselves are not read. The residual
    of each row is relative to max(|load|, 1): F and G alike, so a load
    of rounding size in one row does not inflate that row's residual.
    """
    op = system.operator
    st = op.structure
    V, Q = st.V, st.Q
    f, g = V.to_sectors(system.F), Q.to_sectors(system.G)
    loads = [(F_o.T, G_o.T) for F_o, G_o in zip(V.split(f), Q.split(g))]  # per orbit, one column per sector
    y = [Y @ G_o for (Y, _), (_, G_o) in zip(st.load_maps, loads)]
    defect = sum(np.vdot(y_o[Z.shape[1] :], y_o[Z.shape[1] :]) for y_o, (_, Z) in zip(y, st.load_maps))
    g_dual = np.sqrt(sum(np.vdot(y_o, y_o) for y_o in y))  # |L_Q^-1 G|, the dual norm of G
    if np.sqrt(defect) > KERNEL_RTOL * max(g_dual, 1.0):
        raise ValueError(f"discrete pairing deficient: load not in range(B) (dim ker B^T = {g.size - st.rank})")
    u, p, res1, res2, norm_U, norm_P = [], [], 0.0, 0.0, 0.0, 0.0  # the last four squared until the end
    for o, (lu, A_o, (F_o, G_o), y_o, (_, Z)) in enumerate(zip(_sector_lus(op), op.sectors, loads, y, st.load_maps)):
        X = _lu_solve(lu, np.vstack([F_o, y_o[: Z.shape[1]]]))
        U_o, P_o = X[: len(A_o)], Z @ X[len(A_o) :]
        R1, R2 = A_o @ U_o - F_o, -G_o
        for i in (2 * o, 2 * o + 1):
            part, lv, lq = st.parts[i], V.parts[i], Q.parts[i]
            R1[lv] += part.B.T @ P_o[lq]
            R2[lq] += part.B @ U_o[lv]
            W_V, W_Q = (L.matvec(x, trans=1) for L, x in zip(part.cholesky, (U_o[lv], P_o[lq])))
            norm_U, norm_P = norm_U + np.vdot(W_V, W_V), norm_P + np.vdot(W_Q, W_Q)
        res1, res2 = res1 + np.vdot(R1, R1), res2 + np.vdot(R2, R2)
        u.append(U_o.T.ravel())
        p.append(P_o.T.ravel())
    res1, res2 = np.sqrt(res1) / max(np.linalg.norm(f), 1.0), np.sqrt(res2) / max(np.linalg.norm(g), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        f_dual = np.sqrt(sum(np.vdot(W, W) for W in (L.solve(F_o) for L, (F_o, _) in zip(st.L_V, loads))))
        a0, k0, na = constants.alpha0, constants.k0, constants.norm_A
        bound_U = float(f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual)
        bound_P = float((1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual)
    U, P = V.from_sectors(np.concatenate(u)), Q.from_sectors(np.concatenate(p))
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
