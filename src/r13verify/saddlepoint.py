"""Brezzi constants, mixed solves and stability-bound verification.

All constants are measured on the assembled discrete system and reported
as measurements of that system, not as bounds for the continuous problem.
alpha0 and |A| are extreme eigenvalues found by Lanczos on matrix-free
operators, k0 and |B| dense singular values of the whitened constraint.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import KERNEL_RTOL, MixedSystem, SaddleStructure, matrix_rank

LANCZOS_RTOL = 1e-13  # relative Ritz residual at which the Lanczos iteration stops


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


def _structure(system: MixedSystem) -> SaddleStructure:
    """The shared structure of the system's spaces; a private one if B, M_V or M_Q were replaced."""
    op = system.operator
    if op is not None and op.structure.serves(system):
        return op.structure
    return SaddleStructure(system.B, system.M_V, system.M_Q)


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


def _whitened_norm(form_matrix: np.ndarray, L_left: np.ndarray, L_right: np.ndarray) -> float:
    """Largest singular value of X = L_left^-1 form L_right^-T, by Lanczos on X^T X.

    Each product takes four triangular solves; X is never formed.
    """
    solve = functools.partial(sla.solve_triangular, lower=True, check_finite=False)

    def apply(x):
        y = solve(L_left, form_matrix @ solve(L_right, x, trans=1))
        return solve(L_right, form_matrix.T @ solve(L_left, y, trans=1))

    return float(np.sqrt(_lanczos_max(apply, form_matrix.shape[1])))


def operator_norm(form_matrix: np.ndarray, left_gram: np.ndarray, right_gram: np.ndarray) -> float:
    """Largest generalized singular value of a form in the given norms."""
    L_left, L_right = (sla.cholesky(G, lower=True) for G in (left_gram, right_gram))
    return _whitened_norm(form_matrix, L_left, L_right)


def _saddle_matrix(A: np.ndarray, constraint: np.ndarray, symmetrize: bool = False) -> np.ndarray:
    """[[A, C^T], [C, 0]] in Fortran order, to be factored in place; A_s = (A + A^T)/2 if asked."""
    nV = A.shape[0]
    n = nV + constraint.shape[0]
    K = np.zeros((n, n), order="F")
    K[:nV, :nV] = A
    if symmetrize:
        K[:nV, :nV] += A.T
        K[:nV, :nV] *= 0.5
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


def _coercivity(A: np.ndarray, constraint: np.ndarray, L_V: np.ndarray) -> float:
    """alpha0 = 1 / lambda_max of x -> L_V^T [K_s^-1 (L_V x, 0)]_V.

    K_s = [[A_s, C^T], [C, 0]] with the symmetric part A_s of A and a
    constraint C of full row rank and kernel ker B. The operator equals
    L_V^T Z (Z^T A_s Z)^-1 Z^T L_V for a basis Z of ker B, so its nonzero
    eigenvalues are the reciprocals of those of A_s z = lambda M_V z on
    ker B (the coercivity eigenproblem of Chapelle & Bathe's inf-sup test).
    The forms make A_s positive semidefinite, so the largest one gives
    alpha0. A singular K_s means a kernel direction on which A_s vanishes:
    alpha0 = 0. Only the symmetric part enters since the quadratic form
    ignores the skew coupling. K_s is freed on return.
    """
    nV = A.shape[0]
    lu, rcond = _lu_in_place(_saddle_matrix(A, constraint, symmetrize=True))
    if not rcond >= np.finfo(float).eps:
        return 0.0
    rhs = np.zeros(lu[0].shape[0])
    trmv = sla.get_blas_funcs("trmv", (L_V,))

    def apply(x):
        rhs[:nV] = trmv(L_V, x, lower=1)
        return trmv(L_V, sla.lu_solve(lu, rhs, check_finite=False)[:nV], lower=1, trans=1)

    return 1.0 / _lanczos_max(apply, nV)


def infsup_constant(system: MixedSystem, tol: float = KERNEL_RTOL):
    """Discrete inf-sup constant and the codimension of the range of B.

    k0 is the smallest singular value of B in the natural norms, taken off
    the nullspace of B transpose; dim_kerBT counts the singular values
    below the rank cutoff and is expected to be zero.
    """
    return _infsup(_structure(system).whitened_svals, tol)


def _infsup(svals: np.ndarray, tol: float):
    rank = matrix_rank(svals, tol)
    return (float(svals[rank - 1]) if rank else 0.0), svals.size - rank


def brezzi_constants(system: MixedSystem, tol: float = KERNEL_RTOL) -> BrezziConstants:
    """All measured constants of the assembled system.

    dim ker B is n_V minus the rank of the row split of B^T, which also
    gives alpha0 its constraint of full row rank.
    """
    st = _structure(system)
    W, _, constraint, _ = st.row_split(tol)
    dim_kerB = system.B.shape[1] - W.shape[1]
    if dim_kerB == 0:
        raise ValueError("trivial kernel")
    L_V = st.cholesky[0]
    k0, dim_kerBT = _infsup(st.whitened_svals, tol)
    return BrezziConstants(
        alpha0=_coercivity(system.A, constraint, L_V),
        k0=k0,
        norm_A=_whitened_norm(system.A, L_V, L_V),
        norm_B=float(st.whitened_svals[0]),  # the SVD behind k0
        dim_kerB=dim_kerB,
        dim_kerBT=dim_kerBT,
    )


def dual_norm(vec: np.ndarray, gram: np.ndarray) -> float:
    """Discrete dual norm sqrt(vec^T gram^-1 vec)."""
    return _dual_norm(vec, sla.cholesky(gram, lower=True))


def _dual_norm(vec: np.ndarray, L: np.ndarray) -> float:  # L: lower Cholesky factor of the gram
    return float(np.linalg.norm(sla.solve_triangular(L, vec, lower=True)))


def _saddle_lu(system: MixedSystem, constraint: np.ndarray) -> tuple:
    """LU of the saddle matrix, kept on the system's operator while the system carries its matrices."""
    op = system.operator
    shared = op is not None and op.serves(system)
    if shared and op.factors is not None:
        return op.factors
    lu, rcond = _lu_in_place(_saddle_matrix(system.A, constraint))
    if rcond == 0.0:
        raise ValueError("discrete pairing deficient: singular saddle matrix")
    # the conditioning warning of scipy.linalg.solve, once per factorization
    if not rcond >= np.finfo(float).eps:
        warnings.warn(
            f"An ill-conditioned saddle matrix detected: rcond = {rcond}.", sla.LinAlgWarning, stacklevel=3
        )
    if shared:
        op.factors = lu
    return lu


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

    The split and the norm factors come from the shared structure, the LU
    from the system's operator.
    """
    nV = system.spaces.n_V
    st = _structure(system)
    W, Y, constraint, YMY = st.row_split()
    lu = _saddle_lu(system, constraint)
    G = system.G
    deficient = Y.shape[1] > 0
    if deficient:
        defect = np.linalg.norm(Y.T @ G)
        if defect > KERNEL_RTOL * max(np.linalg.norm(G), 1.0):
            raise ValueError(
                f"discrete pairing deficient: load not in range(B) (dim ker B^T = {Y.shape[1]})"
            )
        G = W.T @ system.G
    sol = sla.lu_solve(lu, np.concatenate([system.F, G]))
    U, P = sol[:nV], sol[nV:]
    if deficient:
        P = W @ P
        # minimal M_Q-norm representative of the pressure class
        c = sla.solve(YMY, -(Y.T @ (system.M_Q @ P)))
        P = P + Y @ c

    res1 = np.linalg.norm(system.A @ U + system.B.T @ P - system.F)
    res2 = np.linalg.norm(system.B @ U - system.G)
    f_norm = np.linalg.norm(system.F)
    res1 /= f_norm if f_norm > 0 else 1.0
    res2 /= max(np.linalg.norm(system.G), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        L_V, L_Q = st.cholesky
        f_dual = _dual_norm(system.F, L_V)
        g_dual = _dual_norm(system.G, L_Q)
        a0, k0, na = constants.alpha0, constants.k0, constants.norm_A
        bound_U = float(f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual)
        bound_P = float(
            (1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual
        )
    return MixedSolution(
        U=U,
        P=P,
        residual_primal=res1,
        residual_constraint=res2,
        norm_U=float(np.sqrt(U @ system.M_V @ U)),
        norm_P=float(np.sqrt(P @ system.M_Q @ P)),
        bound_U=bound_U,
        bound_P=bound_P,
    )


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
