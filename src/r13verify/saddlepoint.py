"""Brezzi constants, mixed solves and stability-bound verification.

All constants are measured on the assembled discrete system and reported
as measurements of that system, not as bounds for the continuous problem.
Dense factorizations throughout; system sizes stay at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import MixedSystem

KERNEL_RTOL = 1e-10


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


def _rank(svals: np.ndarray, tol: float) -> int:
    """Number of singular values above the relative cutoff tol * largest."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    smax = svals[0] if svals.size else 0.0
    return int(np.sum(svals > tol * smax)) if smax > 0 else 0


def _row_split(M: np.ndarray, tol: float):
    """(rank, Vh): rows Vh[:rank] span the row space of M, Vh[rank:] its nullspace.

    The thin SVD already yields the complete right factor of a tall M.
    """
    _, svals, Vh = sla.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return _rank(svals, tol), Vh


def kernel_basis(system: MixedSystem, tol: float = KERNEL_RTOL) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of the constraint matrix."""
    rank, Vh = _row_split(system.B, tol)
    return Vh[rank:].T


def coercivity_constant(system: MixedSystem, Z: np.ndarray):
    """Smallest Rayleigh quotient of the symmetrized primal form on ker B.

    Returns (alpha0, extremizer in V coordinates). Only the symmetric part
    enters since the quadratic form ignores the skew coupling.
    """
    if Z.size == 0 or Z.shape[1] == 0:
        raise ValueError("trivial kernel")
    As = 0.5 * (system.A + system.A.T)
    lhs = Z.T @ As @ Z
    rhs = Z.T @ system.M_V @ Z
    vals, vecs = sla.eigh(lhs, rhs)
    return float(vals[0]), Z @ vecs[:, 0]


def infsup_constant(system: MixedSystem, tol: float = KERNEL_RTOL):
    """Discrete inf-sup constant and the codimension of the range of B.

    k0 is the smallest singular value of B in the natural norms, taken off
    the nullspace of B transpose; dim_kerBT counts the singular values
    below the rank cutoff and is expected to be zero.
    """
    return _infsup(_gram_svals(system.B, system.M_Q, system.M_V), tol)


def _infsup(svals: np.ndarray, tol: float):
    """(k0, dim ker B^T) from the singular values of B in the natural norms."""
    rank = _rank(svals, tol)
    return (float(svals[rank - 1]) if rank else 0.0), svals.size - rank


def _gram_svals(form_matrix: np.ndarray, left_gram: np.ndarray, right_gram: np.ndarray) -> np.ndarray:
    """Generalized singular values of a form in the given norms, descending."""
    Ll = sla.cholesky(left_gram, lower=True)
    Lr = sla.cholesky(right_gram, lower=True)
    K = sla.solve_triangular(Ll, form_matrix, lower=True)
    K = sla.solve_triangular(Lr, K.T, lower=True).T
    return sla.svd(K, compute_uv=False)


def operator_norm(form_matrix: np.ndarray, left_gram: np.ndarray, right_gram: np.ndarray) -> float:
    """Largest generalized singular value of a form in the given norms."""
    return float(_gram_svals(form_matrix, left_gram, right_gram)[0])


def brezzi_constants(system: MixedSystem, tol: float = KERNEL_RTOL) -> BrezziConstants:
    """All measured constants of the assembled system."""
    Z = kernel_basis(system, tol)
    alpha0, _ = coercivity_constant(system, Z)
    svals_B = _gram_svals(system.B, system.M_Q, system.M_V)  # one SVD for k0 and |B|
    k0, dim_kerBT = _infsup(svals_B, tol)
    return BrezziConstants(
        alpha0=alpha0,
        k0=k0,
        norm_A=operator_norm(system.A, system.M_V, system.M_V),
        norm_B=float(svals_B[0]),
        dim_kerB=Z.shape[1],
        dim_kerBT=dim_kerBT,
    )


def dual_norm(vec: np.ndarray, gram: np.ndarray) -> float:
    """Discrete dual norm sqrt(vec^T gram^-1 vec)."""
    return _dual_norm(vec, sla.cho_factor(gram))


def _dual_norm(vec: np.ndarray, cho) -> float:
    return float(np.sqrt(vec @ sla.cho_solve(cho, vec)))


def cokernel_basis(system: MixedSystem, tol: float = KERNEL_RTOL) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of B transpose."""
    rank, Vh = _row_split(system.B.T, tol)
    return Vh[rank:].T


@dataclass
class _SaddleFactors:
    """Load-independent work of solve_mixed on one set of system matrices."""

    W: np.ndarray | None  # orthonormal basis of range(B), set when ker B^T is nontrivial
    Y: np.ndarray | None  # orthonormal basis of ker B^T
    YMY: np.ndarray | None  # Y^T M_Q Y of the minimal-norm pressure correction
    lu: tuple  # LU factors and pivots of the (reduced) saddle matrix
    cho: tuple | None = None  # Cholesky factors of M_V and M_Q, built with the first bounds


def _factor_saddle(system: MixedSystem) -> _SaddleFactors:
    nV, nQ = system.spaces.n_V, system.spaces.n_Q
    B = system.B
    rank, Vh = _row_split(B.T, KERNEL_RTOL)
    W = Y = YMY = None
    if rank < nQ:
        W = Vh[:rank].T
        Y = Vh[rank:].T
        YMY = Y.T @ system.M_Q @ Y
        B = W.T @ B
    n = nV + B.shape[0]
    K = np.zeros((n, n), order="F")  # factored in place
    K[:nV, :nV] = system.A
    K[:nV, nV:] = B.T
    K[nV:, :nV] = B
    lange, getrf, gecon = sla.get_lapack_funcs(("lange", "getrf", "gecon"), (K,))
    anorm = lange("1", np.asarray_chkfinite(K))
    lu, piv, info = getrf(K, overwrite_a=True)
    rcond = gecon(lu, anorm, norm="1")[0] if info == 0 else 0.0
    if rcond == 0.0:
        raise ValueError("discrete pairing deficient: singular saddle matrix")
    # the conditioning warning of scipy.linalg.solve, once per factorization
    if not rcond >= np.finfo(float).eps:
        warnings.warn(
            f"An ill-conditioned saddle matrix detected: rcond = {rcond}.",
            sla.LinAlgWarning,
            stacklevel=3,
        )
    return _SaddleFactors(W=W, Y=Y, YMY=YMY, lu=(lu, piv))


def _saddle_factors(system: MixedSystem) -> _SaddleFactors:
    """The factors of the system's operator, built on first use; local otherwise."""
    op = system.operator
    if op is None or not op.serves(system):
        return _factor_saddle(system)
    if op.factors is None:
        op.factors = _factor_saddle(system)
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

    The cokernel split, the LU of the saddle matrix and the Cholesky
    factors of the norm matrices are built once per assembled operator
    and reused while the system carries that operator's matrices.
    """
    nV = system.spaces.n_V
    fac = _saddle_factors(system)
    G = system.G
    if fac.W is not None:
        defect = np.linalg.norm(fac.Y.T @ G)
        if defect > KERNEL_RTOL * max(np.linalg.norm(G), 1.0):
            raise ValueError(
                "discrete pairing deficient: load not in range(B) "
                f"(dim ker B^T = {fac.Y.shape[1]})"
            )
        G = fac.W.T @ system.G
    sol = sla.lu_solve(fac.lu, np.concatenate([system.F, G]))
    U, P = sol[:nV], sol[nV:]
    if fac.W is not None:
        P = fac.W @ P
        # minimal M_Q-norm representative of the pressure class
        c = sla.solve(fac.YMY, -(fac.Y.T @ (system.M_Q @ P)))
        P = P + fac.Y @ c

    res1 = np.linalg.norm(system.A @ U + system.B.T @ P - system.F)
    res2 = np.linalg.norm(system.B @ U - system.G)
    f_norm = np.linalg.norm(system.F)
    res1 /= f_norm if f_norm > 0 else 1.0
    res2 /= max(np.linalg.norm(system.G), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        if fac.cho is None:
            fac.cho = (sla.cho_factor(system.M_V), sla.cho_factor(system.M_Q))
        f_dual = _dual_norm(system.F, fac.cho[0])
        g_dual = _dual_norm(system.G, fac.cho[1])
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
