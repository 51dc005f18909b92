"""Independent brute-force oracles shared by the test modules.

The tensor oracles are deliberately written as plain index loops, separate
from any vectorized library code they are used to check. The Brezzi
constants oracle uses full dense decompositions (SVD of B, eigh on ker B,
SVD of the whitened forms), the path the library replaced by Lanczos.
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
