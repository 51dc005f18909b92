"""Brezzi constants, mixed solves and stability-bound verification.

All constants are measured on the assembled discrete system and reported
as measurements of that system, not as bounds for the continuous problem.
alpha0 and |A| are extreme eigenvalues found by Lanczos on matrix-free
operators, k0 and |B| dense singular values of the whitened constraint.
All but |A| are taken on the momentum and the energy subproblem apart
(assembly.SaddleStructure) and combined exactly, and the solve eliminates
the momentum subproblem against the LU that alpha0 already took.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import KERNEL_RTOL, BlockCholesky, MixedSystem, SaddleOperator, SaddleStructure, _runs, subproblems

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


def _operator(system: MixedSystem) -> SaddleOperator:
    """The system's shared operator while the system carries its A, B, M_V and M_Q; else a
    private one, on the shared structure when only A was replaced. Each public call resolves
    the operator here once; everything below reads it and its cached factors unchecked."""
    op = system.operator
    st = op and op.structure
    if st is None or not (system.B is st.B and system.M_V is st.M_V and system.M_Q is st.M_Q):
        st = SaddleStructure(system.B, system.M_V, system.M_Q, subproblems(system.spaces))
    elif system.A is op.A:
        return op
    return SaddleOperator(system.A, st)


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


def _whitened_norm(form_matrix: np.ndarray, L_left: BlockCholesky, L_right: BlockCholesky) -> float:
    """Largest singular value of X = L_left^-1 form L_right^-T, by Lanczos on X^T X.

    Each product takes four block triangular solves; X is never formed.
    """

    def apply(x):
        y = L_left.solve(form_matrix @ L_right.solve(x, trans=1))
        return L_right.solve(form_matrix.T @ L_left.solve(y, trans=1))

    return float(np.sqrt(_lanczos_max(apply, form_matrix.shape[1])))


def operator_norm(form_matrix: np.ndarray, left_gram: np.ndarray, right_gram: np.ndarray) -> float:
    """Largest generalized singular value of a form in the given norms."""
    return _whitened_norm(form_matrix, BlockCholesky.of(left_gram), BlockCholesky.of(right_gram))


def _saddle_matrix(A: np.ndarray, constraint: np.ndarray) -> np.ndarray:
    """[[A, C^T], [C, 0]] in Fortran order, to be factored in place."""
    nV = A.shape[0]
    n = nV + constraint.shape[0]
    K = np.zeros((n, n), order="F")
    K[:nV, :nV] = A
    K[:nV, nV:] = constraint.T
    K[nV:, :nV] = constraint
    return K


def _lu_in_place(K: np.ndarray):
    """(LU factors and pivots of K, reciprocal 1-norm condition estimate; 0 if singular)."""
    lange, getrf, gecon = sla.get_lapack_funcs(("lange", "getrf", "gecon"), (K,))
    anorm = lange("1", np.asarray_chkfinite(K))
    lu, piv, info = getrf(K, overwrite_a=True)
    rcond = gecon(lu, anorm, norm="1")[0] if info == 0 else 0.0
    return (lu, piv), rcond


def _bordered_lu(op: SaddleOperator, i: int):
    """(LU, rcond) of part i's bordered matrix [[A_ii, C_i^T], [C_i, 0]],
    factored once per operator; alpha0 and the solve share it."""
    if i not in op.bordered:
        p, rank = op.structure.parts[i], op.structure.ranks[i]
        op.bordered[i] = _lu_in_place(_saddle_matrix(op.A[np.ix_(p.v, p.v)], p.constraint(rank)))
    return op.bordered[i]


def _lu_solve(lu: tuple, b: np.ndarray) -> np.ndarray:  # LAPACK getrs: scipy's lu_solve costs more here
    return _getrs(*lu, b)[0]


def _coercivity(op: SaddleOperator) -> float:
    """alpha0 on ker B: the smallest of the subproblems' constants.

    Raises unless A, read in views of its blocks, is symmetric on each
    subproblem and skew between them, as assembled. Then ker B, M_V and
    A's symmetric part split along the subproblems, so the coercivity
    eigenproblem on ker B is the union of one per part, on the solve's
    bordered matrices. A part whose B block is injective has no say.
    """
    A, st = op.A, op.structure
    runs = [[g for _, g in _runs(v)] for v, _ in st.subproblems]
    for name, part in zip(("momentum", "energy"), runs):
        if not all(np.array_equal(A[a, b], A[b, a].T) for a in part for b in part):
            raise ValueError(f"A is not symmetric on the {name} subproblem")
    if any(np.any(A[a, b] + A[b, a].T) for a in runs[0] for b in runs[1]):
        raise ValueError("the symmetric part of A couples the momentum and energy subproblems")
    return min(
        _kernel_coercivity(*_bordered_lu(op, i), p.cholesky[0], p.v.size)
        for i, p in enumerate(st.parts)
        if st.ranks[i] < p.v.size
    )


def _kernel_coercivity(lu: tuple, rcond: float, L_V: BlockCholesky, nV: int) -> float:
    """alpha0 = 1 / lambda_max of x -> L_V^T [K_s^-1 (L_V x, 0)]_V.

    K_s = [[A_s, C^T], [C, 0]], factored as lu, with A_s symmetric and a
    constraint C of full row rank and kernel ker B. The operator
    equals L_V^T Z (Z^T A_s Z)^-1 Z^T L_V for a basis Z of ker B, so its
    nonzero eigenvalues are the reciprocals of those of A_s z = lambda M_V z
    on ker B (the coercivity eigenproblem of Chapelle & Bathe's inf-sup
    test). The forms make A_s positive semidefinite, so the largest one
    gives alpha0. A singular K_s means a kernel direction on which A_s
    vanishes: alpha0 = 0.
    """
    if not rcond >= np.finfo(float).eps:
        return 0.0
    rhs = np.zeros(lu[0].shape[0])

    def apply(x):
        rhs[:nV] = L_V.matvec(x)
        return L_V.matvec(_lu_solve(lu, rhs)[:nV], trans=1)

    return 1.0 / _lanczos_max(apply, nV)


def infsup_constant(system: MixedSystem):
    """Discrete inf-sup constant and the codimension of the range of B.

    k0 is the smallest singular value of B in the natural norms, taken off
    the nullspace of B transpose; dim_kerBT counts the singular values
    below the fixed cutoff KERNEL_RTOL (the report's `kernel_rank_cutoff`)
    and is expected to be zero. The structure comes from `_operator`.
    """
    st = _operator(system).structure
    return _infsup(st.whitened_svals, sum(st.ranks))


def _infsup(svals: np.ndarray, rank: int):
    return (float(svals[rank - 1]) if rank else 0.0), svals.size - rank


def brezzi_constants(system: MixedSystem) -> BrezziConstants:
    """All measured constants of the assembled system.

    Each comes from the momentum and the energy subproblem and is combined
    exactly. One SVD of each part's block of B in the natural norms, cut
    once at KERNEL_RTOL (the report's `kernel_rank_cutoff`), gives k0, |B|,
    dim ker B, dim ker B^T and the constraint of full row rank behind each
    part's alpha0; alpha0 is the smaller of the two and needs A symmetric
    on each subproblem. |A| is taken on the whole A with the parts' factors
    of M_V. The operator comes from `_operator`.
    """
    op = _operator(system)
    st = op.structure
    rank = sum(st.ranks)
    dim_kerB = system.B.shape[1] - rank
    if dim_kerB == 0:
        raise ValueError("trivial kernel")
    L_V = st.cholesky[0]
    k0, dim_kerBT = _infsup(st.whitened_svals, rank)
    return BrezziConstants(
        alpha0=_coercivity(op),
        k0=k0,
        norm_A=_whitened_norm(system.A, L_V, L_V),
        norm_B=float(st.whitened_svals[0]),  # the SVD behind k0
        dim_kerB=dim_kerB,
        dim_kerBT=dim_kerBT,
    )


def dual_norm(vec: np.ndarray, gram: np.ndarray) -> float:
    """Discrete dual norm sqrt(vec^T gram^-1 vec)."""
    return float(np.linalg.norm(BlockCholesky.of(gram).solve(vec)))


def _coupling(A: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> list:
    """The nonzero blocks of A[rows, cols] between contiguous runs of the two
    increasing index arrays, as (local rows, local columns, view of A)."""
    blocks = ((lr, lc, A[gr, gc]) for lr, gr in _runs(rows) for lc, gc in _runs(cols))
    return [b for b in blocks if np.any(b[2])]


def _elimination(op: SaddleOperator) -> tuple:
    """(LU of K_0, LU of S, R_01 blocks, R_10 blocks) of the saddle matrix, kept in op.factors.

    Up to the order of its rows it is [[K_0, R_01], [R_10, K_1]], with K_i
    the parts' bordered matrices and R_01, R_10 views of the blocks of A
    between the parts. S = K_1 - R_10 K_0^-1 R_01 is the Schur complement.
    """
    if op.factors is not None:
        return op.factors
    A, st = op.A, op.structure
    p0, p1 = st.parts
    lu0, rcond0 = _bordered_lu(op, 0)
    if rcond0 == 0.0:
        raise ValueError("discrete pairing deficient: singular saddle matrix")
    upper, lower = _coupling(A, p0.v, p1.v), _coupling(A, p1.v, p0.v)
    Z = np.zeros((lu0[0].shape[0], p1.v.size), order="F")
    for lr, lc, blk in upper:
        Z[lr, lc] = blk
    Z = _getrs(*lu0, Z, overwrite_b=1)[0]  # K_0^-1 R_01, in place
    S = _saddle_matrix(A[np.ix_(p1.v, p1.v)], p1.constraint(st.ranks[1]))
    for lr, lc, blk in lower:
        S[lr, : p1.v.size] -= blk @ Z[lc]
    del Z
    lu1, rcond1 = _lu_in_place(S)
    if rcond1 == 0.0:
        raise ValueError("discrete pairing deficient: singular saddle matrix")
    if not min(rcond0, rcond1) >= np.finfo(float).eps:  # scipy.linalg.solve's warning, once
        msg = f"An ill-conditioned saddle matrix detected: rcond = {min(rcond0, rcond1)}."
        warnings.warn(msg, sla.LinAlgWarning, stacklevel=3)
    op.factors = lu0, lu1, upper, lower
    return op.factors


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
    minimal pressure P = L_Q^-T U_r lam. The momentum part is eliminated
    against the bordered LU alpha0 took (_elimination), which needs the
    momentum alpha0 positive; each load costs three back-substitutions.
    """
    op = _operator(system)
    st = op.structure
    L_V, L_Q = st.cholesky
    g = L_Q.solve(system.G)  # its norm is the dual norm of G
    U_split = [(p, p.whitened_svd[0][:, :r], p.whitened_svd[0][:, r:]) for p, r in zip(st.parts, st.ranks)]
    defect = np.concatenate([U_k.T @ g[p.q] for p, _, U_k in U_split])
    if np.linalg.norm(defect) > KERNEL_RTOL * max(np.linalg.norm(g), 1.0):
        raise ValueError(f"discrete pairing deficient: load not in range(B) (dim ker B^T = {defect.size})")
    lu0, lu1, upper, lower = _elimination(op)
    b0, b1 = (np.concatenate([system.F[p.v], U_r.T @ g[p.q]]) for p, U_r, _ in U_split)
    y0 = _lu_solve(lu0, b0)
    for lr, lc, blk in lower:
        b1[lr] -= blk @ y0[lc]
    x1 = _lu_solve(lu1, b1)
    for lr, lc, blk in upper:
        b0[lr] -= blk @ x1[lc]
    U, w = np.empty(system.F.size), np.empty(g.size)
    for (p, U_r, _), x in zip(U_split, (_lu_solve(lu0, b0), x1)):
        U[p.v], w[p.q] = x[: p.v.size], U_r @ x[p.v.size :]
    P = L_Q.solve(w, trans=1)

    res1 = np.linalg.norm(system.A @ U + system.B.T @ P - system.F)
    res2 = np.linalg.norm(system.B @ U - system.G)
    f_norm = np.linalg.norm(system.F)
    res1 /= f_norm if f_norm > 0 else 1.0
    res2 /= max(np.linalg.norm(system.G), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        f_dual, g_dual = np.linalg.norm(L_V.solve(system.F)), np.linalg.norm(g)
        a0, k0, na = constants.alpha0, constants.k0, constants.norm_A
        bound_U = float(f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual)
        bound_P = float((1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual)
    norm_U, norm_P = float(np.sqrt(U @ system.M_V @ U)), float(np.sqrt(P @ system.M_Q @ P))
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
