"""Brezzi constants, mixed solves and stability-bound verification.

All constants are measured on the assembled discrete system and reported
as measurements of that system, not as bounds for the continuous problem.
alpha0 and |A| are extreme eigenvalues found by Lanczos on matrix-free
operators, k0 and |B| dense singular values of the whitened constraint.
The unit cube's three mirror reflections and the split into momentum and
energy subproblem cut the system into 8 sectors of two parts each
(assembly.SaddleStructure): every constant comes from the parts or the
sectors and is combined exactly, and the solve factors each sector's
saddle matrix once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import KERNEL_RTOL, BlockCholesky, MixedSystem, SaddleOperator

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


def _whitened_norm(product, n: int, L_left: BlockCholesky, L_right: BlockCholesky) -> float:
    """Largest singular value of X = L_left^-1 F L_right^-T, by Lanczos on X^T X.

    product(x, trans) returns F x, or F^T x for trans True, with F n columns
    wide. Each product takes four block triangular solves; X is never formed.
    """

    def apply(x):
        y = L_left.solve(product(L_right.solve(x, trans=1), False))
        return L_right.solve(product(L_left.solve(y, trans=1), True))

    return float(np.sqrt(_lanczos_max(apply, n)))


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


def _bordered_lu(op: SaddleOperator, i: int):
    """(LU, rcond) of part i's bordered matrix [[A_ii, C_i^T], [C_i, 0]], factored once per operator."""
    if i not in op.bordered:
        p = op.structure.parts[i]
        A_ii = op.sectors[p.sector][p.local, p.local]
        C_i = p.constraint(op.structure.ranks[i])
        op.bordered[i] = _lu_in_place(_saddle_matrix(A_ii, [(slice(0, A_ii.shape[0]), C_i)]))
    return op.bordered[i]


def _sector_lus(op: SaddleOperator) -> list:
    """LU of each sector's saddle matrix [[A_s, C_s^T], [C_s, 0]], factored once per operator;
    C_s stacks the constraints of the sector's parts."""
    if op.factors is None:
        st = op.structure
        factors = [
            _lu_in_place(
                _saddle_matrix(A_s, [(p.local, p.constraint(r)) for p, r in zip(st.parts, st.ranks) if p.sector == s])
            )
            for s, A_s in enumerate(op.sectors)
        ]
        rcond = min(rc for _, rc in factors)
        if rcond == 0.0:
            raise ValueError("discrete pairing deficient: singular saddle matrix")
        if not rcond >= np.finfo(float).eps:  # scipy.linalg.solve's warning, once
            msg = f"An ill-conditioned saddle matrix detected: rcond = {rcond}."
            warnings.warn(msg, sla.LinAlgWarning, stacklevel=3)
        op.factors = [lu for lu, _ in factors]
    return op.factors


def _sector_product(op: SaddleOperator):
    """x -> A x or A^T x in sector coordinates, by the sector blocks of A."""

    def product(x, trans):
        out = np.empty(x.size)
        for A_s, sl in zip(op.sectors, op.structure.V.sectors):
            out[sl] = (A_s.T if trans else A_s) @ x[sl]
        return out

    return product


def _lu_solve(lu: tuple, b: np.ndarray) -> np.ndarray:  # LAPACK getrs: scipy's lu_solve costs more here
    return _getrs(*lu, b)[0]


def _coercivity(op: SaddleOperator) -> float:
    """alpha0 on ker B: 1 / lambda_max of x -> L_V^T [K_s^-1 (L_V x, 0)]_V over the parts.

    A is symmetric to the bit on each subproblem and skew between them, as
    assembled (`assembly._symmetrize`), so ker B, M_V and A's symmetric
    part split along the parts: the coercivity eigenproblem on ker B is
    the direct sum of one per part, and one Lanczos run on the direct sum
    gives the smallest constant. On part i,
    K_s = [[A_ii, C_i^T], [C_i, 0]] is its bordered matrix, with C_i of
    full row rank and kernel ker B_i. The operator equals
    L_V^T Z (Z^T A_ii Z)^-1 Z^T L_V for a basis Z of ker B_i, so its nonzero
    eigenvalues are the reciprocals of those of A_ii z = lambda M_V z on
    ker B_i (the coercivity eigenproblem of Chapelle & Bathe's inf-sup
    test). The forms make A_ii positive semidefinite. A singular K_s means
    a kernel direction on which A vanishes: alpha0 = 0. A part whose B
    block is injective has no say.
    """
    st = op.structure
    terms, n = [], 0
    for i, p in enumerate(st.parts):
        nV = p.M_V.shape[0]
        if st.ranks[i] < nV:
            lu, rcond = _bordered_lu(op, i)
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
    return _infsup(st.whitened_svals, sum(st.ranks))


def _infsup(svals: np.ndarray, rank: int):
    return (float(svals[rank - 1]) if rank else 0.0), svals.size - rank


def brezzi_constants(system: MixedSystem) -> BrezziConstants:
    """All measured constants of the assembled system.

    Each comes from the structure's 16 parts (mirror sector x subproblem)
    and is combined exactly. One SVD of each part's block of B in the
    natural norms, cut once at KERNEL_RTOL (the report's
    `kernel_rank_cutoff`) times the whole B's largest singular value, gives
    k0 and dim ker B^T from the union of the singular values, |B|, dim
    ker B as a sum, and the constraint of full row rank behind each part's
    alpha0. alpha0 is the minimum over the parts, |A| the largest over the
    sectors' blocks of A with the parts' factors of M_V; they take one
    Lanczos run each over the direct sum.
    """
    op = system.operator
    st = op.structure
    rank = sum(st.ranks)
    dim_kerB = st.V.order.size - rank
    if dim_kerB == 0:
        raise ValueError("trivial kernel")
    L_V = st.L_V
    k0, dim_kerBT = _infsup(st.whitened_svals, rank)
    return BrezziConstants(
        alpha0=_coercivity(op),
        k0=k0,
        norm_A=_whitened_norm(_sector_product(op), st.V.order.size, L_V, L_V),
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

    Each part's one SVD L_Q^-1 B_i L_V^-T = U S V^T, split at its rank into
    U_r and U_k, gives the consistency test U_k^T L_Q^-1 G = 0, the
    constraint rows U_r^T L_Q^-1 G and, from the multipliers lam, the
    minimal pressure P = L_Q^-T U_r lam, through one map per sector each
    way (SaddleStructure.load_maps). F and G go to sector coordinates, each
    sector's saddle matrix is factored once per operator, and U and P come
    back from sector coordinates: each further load costs two permutations
    each way and per sector three small products and one LU
    back-substitution. The residuals and the norms of U and P are taken in
    sector coordinates, with the operator's blocks of A and the parts'.
    """
    op = system.operator
    st = op.structure
    f, g = st.V.to_sectors(system.F), st.Q.to_sectors(system.G)
    y = [Y @ g[qs] for (Y, _), qs in zip(st.load_maps, st.Q.sectors)]
    defect = np.concatenate([y_s[Z.shape[1] :] for y_s, (_, Z) in zip(y, st.load_maps)])
    g_dual = np.linalg.norm(np.concatenate(y))  # |L_Q^-1 G|, the dual norm of G
    if np.linalg.norm(defect) > KERNEL_RTOL * max(g_dual, 1.0):
        raise ValueError(f"discrete pairing deficient: load not in range(B) (dim ker B^T = {defect.size})")
    u, p = np.empty(f.size), np.empty(g.size)
    for lu, vs, qs, y_s, (_, Z) in zip(_sector_lus(op), st.V.sectors, st.Q.sectors, y, st.load_maps):
        x = _lu_solve(lu, np.concatenate([f[vs], y_s[: Z.shape[1]]]))
        u[vs], p[qs] = x[: vs.stop - vs.start], Z @ x[vs.stop - vs.start :]
    r1, r2 = -f, -g  # the residuals, in sector coordinates
    for A_s, vs in zip(op.sectors, st.V.sectors):
        r1[vs] += A_s @ u[vs]
    for part in st.parts:
        r1[part.v] += part.B.T @ p[part.q]
        r2[part.q] += part.B @ u[part.v]
    f_norm = np.linalg.norm(f)
    res1 = np.linalg.norm(r1) / (f_norm if f_norm > 0 else 1.0)
    res2 = np.linalg.norm(r2) / max(np.linalg.norm(g), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        f_dual = np.linalg.norm(st.L_V.solve(f))
        a0, k0, na = constants.alpha0, constants.k0, constants.norm_A
        bound_U = float(f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual)
        bound_P = float((1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual)
    U, P = st.V.from_sectors(u), st.Q.from_sectors(p)
    norm_U = float(np.sqrt(sum(u[i.v] @ i.M_V @ u[i.v] for i in st.parts)))
    norm_P = float(np.sqrt(sum(p[i.q] @ i.M_Q @ p[i.q] for i in st.parts)))
    return MixedSolution(U, P, res1, res2, norm_U, norm_P, bound_U, bound_P)


def limit_consistency(U: np.ndarray, P: np.ndarray, system: MixedSystem):
    """Distance of the solved fields from the Stokes and Fourier closures.

    res_NS = |sigma + 2 Kn stf D u| / max(|sigma|, Kn) and
    res_Fourier = |s + (15/4) Kn grad theta| / max(|s|, Kn), all in L2,
    with u and theta taken from their discrete polynomial representatives.
    """
    spaces = system.spaces
    sb = spaces.scalar
    kn = system.params.kn
    sig, s, _ = spaces.split_V(np.asarray(U))
    u, theta = spaces.split_Q(np.asarray(P))
    w = sb.weights

    sig_vals = np.einsum("qa,aij->qij", np.einsum("aI,qI->qa", sig, sb.phi), spaces.E)
    du = np.einsum("iI,kqI->qik", u, spaces.scalar_pq.dphi)
    stf_du = 0.5 * (du + du.transpose(0, 2, 1))
    stf_du -= (np.einsum("qii->q", du) / 3.0)[:, None, None] * np.eye(3)
    ns_mis = sig_vals + 2.0 * kn * stf_du
    ns_norm = np.sqrt(np.sum(w * np.einsum("qij,qij->q", ns_mis, ns_mis)))
    sig_norm = np.sqrt(np.sum(w * np.einsum("qij,qij->q", sig_vals, sig_vals)))
    res_ns = float(ns_norm / max(sig_norm, kn))

    s_vals = np.einsum("iI,qI->qi", s, sb.phi)
    grad_th = np.einsum("I,kqI->qk", theta, spaces.scalar_pq.dphi)
    fo_mis = s_vals + (15.0 / 4.0) * kn * grad_th
    fo_norm = np.sqrt(np.sum(w * np.einsum("qi,qi->q", fo_mis, fo_mis)))
    s_norm = np.sqrt(np.sum(w * np.einsum("qi,qi->q", s_vals, s_vals)))
    res_fourier = float(fo_norm / max(s_norm, kn))
    return res_ns, res_fourier
