"""Symmetric trace-free tensor calculus in dimension d >= 2.

All routines operate on dense numpy arrays of shape (d, d) or (d, d, d),
real or complex. The dimension is runtime data so the rank-3 trace
coefficient 1/(d+2) can be exercised away from d = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

import numpy as np

_FRAME_TOL = 1e-12


def _check_rank2(M: np.ndarray) -> int:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 2:
        raise ValueError(f"expected a square d x d array with d >= 2, got shape {M.shape}")
    return M.shape[0]


def _check_rank3(T: np.ndarray) -> int:
    T = np.asarray(T)
    if T.ndim != 3 or len(set(T.shape)) != 1 or T.shape[0] < 2:
        raise ValueError(f"expected a cubic d x d x d array with d >= 2, got shape {T.shape}")
    return T.shape[0]


def project2(M: np.ndarray, kind: str) -> np.ndarray:
    """Project a rank-2 tensor onto its sym, dev, or stf part.

    sym M = (M + M^T)/2, dev M = M - (tr M / d) I, stf M = dev sym M.
    'identity' returns M unchanged. All projections are orthogonal with
    respect to the Frobenius inner product.
    """
    d = _check_rank2(M)
    M = np.asarray(M)
    if kind == "identity":
        return M.copy()
    if kind == "sym":
        return 0.5 * (M + M.T)
    if kind == "skew":
        return 0.5 * (M - M.T)
    if kind == "dev":
        return M - (np.trace(M) / d) * np.eye(d)
    if kind == "stf":
        S = 0.5 * (M + M.T)
        return S - (np.trace(S) / d) * np.eye(d)
    raise ValueError(f"unknown rank-2 projection kind {kind!r}")


def sym3(T: np.ndarray) -> np.ndarray:
    """Full symmetrization of a rank-3 tensor (average over all 6 index orders)."""
    _check_rank3(T)
    T = np.asarray(T)
    out = np.zeros_like(T)
    for perm in permutations((0, 1, 2)):
        out += np.transpose(T, perm)
    return out / 6.0


def project3(T: np.ndarray, kind: str) -> np.ndarray:
    """Project a rank-3 tensor onto its Sym, Dev, or Stf part.

    The trace terms carry the dimension-dependent coefficient 1/(d+2),
    which reduces to 1/5 at d = 3. Dev subtracts the three single-index
    traces of T itself; Stf does the same after full symmetrization and
    is an orthogonal projection. Dev is a projection only on symmetric
    input (its trace triple is not invariant otherwise).
    """
    d = _check_rank3(T)
    T = np.asarray(T)
    if kind == "Sym":
        return sym3(T)
    if kind not in ("Dev", "Stf"):
        raise ValueError(f"unknown rank-3 projection kind {kind!r}")
    base = T if kind == "Dev" else sym3(T)
    c = 1.0 / (d + 2)
    eye = np.eye(d)
    t1 = np.einsum("ill->i", base)  # trace over slots 2,3
    t2 = np.einsum("ljl->j", base)  # trace over slots 1,3
    t3 = np.einsum("llk->k", base)  # trace over slots 1,2
    out = base - c * (
        np.einsum("i,jk->ijk", t1, eye)
        + np.einsum("j,ik->ijk", t2, eye)
        + np.einsum("k,ij->ijk", t3, eye)
    )
    return out


def _projection_matrix(project, kind: str, d: int, rank: int) -> np.ndarray:
    P = np.zeros((d**rank, d**rank))
    for col, idx in enumerate(product(range(d), repeat=rank)):
        E = np.zeros((d,) * rank)
        E[idx] = 1.0
        P[:, col] = project(E, kind).ravel()
    P.setflags(write=False)  # cached and shared between callers
    return P


@cache
def projection_matrix2(kind: str, d: int) -> np.ndarray:
    """Read-only matrix of project2(., kind) on flattened d x d tensors (d^2 x d^2)."""
    return _projection_matrix(project2, kind, d, 2)


@cache
def projection_matrix3(kind: str, d: int) -> np.ndarray:
    """Read-only matrix of project3(., kind) on flattened d x d x d tensors (d^3 x d^3)."""
    return _projection_matrix(project3, kind, d, 3)


def _range_orthobasis(P: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of range(P) by Gram-Schmidt over P's columns in lex order.

    Deterministic: columns are visited in the canonical (lexicographic)
    order of the generating unit tensors, so the basis is reproducible
    bit-for-bit across runs.
    """
    basis: list[np.ndarray] = []
    for col in range(P.shape[1]):
        v = P[:, col].astype(float).copy()
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return np.array(basis)


@cache
def stf_basis(rank: int, d: int) -> np.ndarray:
    """Read-only orthonormal (Frobenius) basis of the stf/Stf subspace, built once per (rank, d).

    Returns shape (n, d, d) for rank 2 with n = d(d+1)/2 - 1, or
    (n, d, d, d) for rank 3 with n = d(d+1)(d+2)/6 - d.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if rank not in (2, 3):
        raise ValueError("rank must be 2 or 3")
    B = _range_orthobasis(projection_matrix2("stf", d) if rank == 2 else projection_matrix3("Stf", d))
    B = B.reshape((-1,) + (d,) * rank)
    B.setflags(write=False)  # cached and shared between callers
    return B


@dataclass(frozen=True)
class Frame:
    """Boundary-aligned orthonormal 3-frame (n, t1, t2) with t1 x t2 = n."""

    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        for name in ("n", "t1", "t2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        self.validate()

    def validate(self) -> None:
        vecs = (self.n, self.t1, self.t2)
        if any(v.shape != (3,) for v in vecs):
            raise ValueError("invalid frame")
        G = np.array([[a @ b for b in vecs] for a in vecs])
        if np.max(np.abs(G - np.eye(3))) > _FRAME_TOL:
            raise ValueError("invalid frame")
        if np.linalg.norm(np.cross(self.t1, self.t2) - self.n) > _FRAME_TOL:
            raise ValueError("invalid frame")


def frame_components(value: np.ndarray, frame: Frame) -> dict[str, float | complex]:
    """Components of a vector or rank-2 tensor in a boundary frame.

    Vectors map to {'n', 't1', 't2'}; rank-2 tensors map to
    {'nn', 'nt1', 'nt2', 't1t1', 't1t2', 't2t2'} via contraction with
    the frame vectors (first index with the first label).
    """
    frame.validate()
    value = np.asarray(value)
    if value.shape == (3,):
        return {
            "n": value @ frame.n,
            "t1": value @ frame.t1,
            "t2": value @ frame.t2,
        }
    if value.shape == (3, 3):
        n, t1, t2 = frame.n, frame.t1, frame.t2
        return {
            "nn": n @ value @ n,
            "nt1": n @ value @ t1,
            "nt2": n @ value @ t2,
            "t1t1": t1 @ value @ t1,
            "t1t2": t1 @ value @ t2,
            "t2t2": t2 @ value @ t2,
        }
    raise ValueError(f"expected shape (3,) or (3, 3), got {value.shape}")


def frame_components3(T: np.ndarray, frame: Frame) -> dict[str, float | complex]:
    """Rank-3 frame components used by the wall relations (m_nnn, m_nnt_i, ...)."""
    frame.validate()
    T = np.asarray(T)
    if T.shape != (3, 3, 3):
        raise ValueError(f"expected shape (3, 3, 3), got {T.shape}")
    n, t1, t2 = frame.n, frame.t1, frame.t2

    def tri(a, b, c):
        return np.einsum("ijk,i,j,k->", T, a, b, c)

    return {
        "nnn": tri(n, n, n),
        "nnt1": tri(n, n, t1),
        "nnt2": tri(n, n, t2),
        "nt1t1": tri(n, t1, t1),
        "nt1t2": tri(n, t1, t2),
    }
