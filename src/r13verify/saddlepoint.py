"""Brezzi constants, mixed solves and stability-bound verification.

All constants are measured on the assembled discrete system and reported
as measurements of that system, not as bounds for the continuous problem.
alpha0 and |A| are extreme eigenvalues found by Lanczos on matrix-free
operators, k0 and |B| dense singular values of the whitened constraint.
The unit cube's three mirror reflections and the split into momentum and
energy subproblem cut the system into 8 sectors of two parts each
(assembly.SaddleStructure). The swaps of the cube's axes map sectors 1, 2
and 4 onto each other and 3, 5 and 6, by exact coefficient maps, and the
sector coordinates are carried by them (spaces.Sectors): there sectors 2,
4, 5 and 6 are aliases, whose blocks and parts are those of their
representative, 1 or 3, themselves. So the representative sectors 0, 1,
3 and 7 and their 8 parts carry every factorization, SVD and Lanczos run:
each constant comes from them, a representative counting once per sector
of its orbit (1 for sectors 0 and 7, 3 for 1 and 3), and the solve
factors the 4 representatives' saddle matrices once and solves each
other sector through its representative's LU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import KERNEL_RTOL, BlockCholesky, MixedSystem, SaddleOperator, SaddleStructure, _shift
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


def _representatives(st: SaddleStructure) -> list[tuple[int, list]]:
    """Per representative sector s, ascending: (s, its two slots' (part, rank), momentum first)."""
    return [(s, list(zip(st.parts[2 * s : 2 * s + 2], st.ranks[2 * s : 2 * s + 2]))) for s in sorted(set(st.V.representative))]


def _sector_lus(op: SaddleOperator) -> dict:
    """Per representative sector s, the LU of its saddle matrix [[A_s, C_s^T], [C_s, 0]],
    factored once per operator; C_s stacks the constraints of the sector's parts."""
    if op.factors is None:
        factors = {
            s: _lu_in_place(_saddle_matrix(op.sectors[s], [(p.local, p.constraint(r)) for p, r in own]))
            for s, own in _representatives(op.structure)
        }
        rcond = min(rc for _, rc in factors.values())
        if rcond == 0.0:
            raise ValueError("discrete pairing deficient: singular saddle matrix")
        if not rcond >= np.finfo(float).eps:  # scipy.linalg.solve's warning, once
            msg = f"An ill-conditioned saddle matrix detected: rcond = {rcond}."
            warnings.warn(msg, sla.LinAlgWarning, stacklevel=3)
        op.factors = {s: lu for s, (lu, _) in factors.items()}
    return op.factors


def _lu_solve(lu: tuple, b: np.ndarray) -> np.ndarray:  # LAPACK getrs: scipy's lu_solve costs more here
    return _getrs(*lu, b)[0]


def _norm_A(op: SaddleOperator) -> float:
    """|A| in the M_V norm: the largest singular value of X = L_V^-1 A L_V^-T, by Lanczos
    on X^T X over the direct sum of the representative sectors. Each product takes four
    block triangular solves per sector; X is never formed."""
    terms, n = [], 0
    for s, own in _representatives(op.structure):
        L = BlockCholesky((_shift(sl, p.local.start), F) for p, _ in own for sl, F in p.cholesky[0].blocks)
        terms.append((op.sectors[s], L, slice(n, n + op.sectors[s].shape[0])))
        n = terms[-1][2].stop

    def apply(x):
        y = np.empty(n)
        for A_s, L, sl in terms:
            z = L.solve(A_s @ L.solve(x[sl], trans=1))
            y[sl] = L.solve(A_s.T @ L.solve(z, trans=1))
        return y

    return float(np.sqrt(_lanczos_max(apply, n)))


def _coercivity(op: SaddleOperator) -> float:
    """alpha0 on ker B: 1 / lambda_max of x -> L_V^T [K_s^-1 (L_V x, 0)]_V over the
    representative parts.

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
    block is injective has no say, nor does a part of another sector of
    an orbit: its eigenproblem is its representative's, carried by the
    orthogonal map of the axis swap.
    """
    terms, n = [], 0
    for s, own in _representatives(op.structure):
        for p, rank in own:
            nV = p.M_V.shape[0]
            if rank < nV:
                lu, rcond = _lu_in_place(_saddle_matrix(op.sectors[s][p.local, p.local], [(slice(0, nV), p.constraint(rank))]))
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

    Each comes from the 8 parts (sector x subproblem) of the representative
    sectors 0, 1, 3 and 7 and is combined exactly: the axis swaps carry
    each representative onto the other sectors of its orbit by orthogonal
    maps, so a representative counts once for sectors 0 and 7 and three
    times for 1 and 3. One SVD of each representative part's block of B
    in the natural norms, cut once at KERNEL_RTOL (the report's
    `kernel_rank_cutoff`) times the whole B's largest singular value, gives
    k0 and dim ker B^T from the union of the singular values with those
    multiplicities, |B|, dim ker B as a weighted sum, and the constraint of
    full row rank behind each part's alpha0. alpha0 is the minimum over the
    representative parts, |A| the largest over the representatives' blocks
    of A with their parts' factors of M_V; they take one Lanczos run each
    over the direct sum.
    """
    op = system.operator
    st = op.structure
    rank = sum(st.ranks)
    dim_kerB = st.V.order.size - rank
    if dim_kerB == 0:
        raise ValueError("trivial kernel")
    k0, dim_kerBT = _infsup(st.whitened_svals, rank)
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

    Each representative part's one SVD L_Q^-1 B_i L_V^-T = U S V^T, split
    at its rank into U_r and U_k, gives the consistency test
    U_k^T L_Q^-1 G = 0, the constraint rows U_r^T L_Q^-1 G and, from the
    multipliers lam, the minimal pressure P = L_Q^-T U_r lam, through one
    map per representative sector each way (SaddleStructure.load_maps).
    Everything runs in the carried sector coordinates (spaces.Sectors), in
    which each sector's blocks are its representative's: F and G are
    carried in once (an index gather, plus the 2 x 2 mix of sigma's
    diagonal pair for F), the 4 representative sectors' saddle matrices
    are factored once per operator, every sector is solved through its
    representative's LU, and U and P are carried back once. Each further
    load costs those four gathers and, per sector, three small products
    and one LU back-substitution. The residuals and the norms of U and P
    are taken in the carried coordinates, with the 8 slots of the
    operator's blocks of A and the 16 slots of the parts, a mapped
    sector's being its representative's.
    """
    op = system.operator
    st = op.structure
    V, Q = st.V, st.Q
    f, g = V.to_sectors(system.F), Q.to_sectors(system.G)
    y = [Y @ g[qs] for (Y, _), qs in zip(st.load_maps, Q.sectors)]
    defect = np.concatenate([y_s[Z.shape[1] :] for y_s, (_, Z) in zip(y, st.load_maps)])
    g_dual = np.linalg.norm(np.concatenate(y))  # |L_Q^-1 G|, the dual norm of G
    if np.linalg.norm(defect) > KERNEL_RTOL * max(g_dual, 1.0):
        raise ValueError(f"discrete pairing deficient: load not in range(B) (dim ker B^T = {defect.size})")
    lus = _sector_lus(op)
    u, p = np.empty(f.size), np.empty(g.size)
    for r, vs, qs, y_s, (_, Z) in zip(V.representative, V.sectors, Q.sectors, y, st.load_maps):
        x = _lu_solve(lus[r], np.concatenate([f[vs], y_s[: Z.shape[1]]]))
        u[vs], p[qs] = x[: vs.stop - vs.start], Z @ x[vs.stop - vs.start :]
    r1, r2, norm_U, norm_P = -f, -g, 0.0, 0.0  # the residuals, in carried sector coordinates
    for A_s, vs in zip(op.sectors, V.sectors):
        r1[vs] += A_s @ u[vs]
    for part, vp, qp in zip(st.parts, V.parts, Q.parts):
        u_i, p_i = u[vp], p[qp]
        r1[vp] += part.B.T @ p_i
        r2[qp] += part.B @ u_i
        norm_U += u_i @ (part.M_V @ u_i)
        norm_P += p_i @ (part.M_Q @ p_i)
    f_norm = np.linalg.norm(f)
    res1 = np.linalg.norm(r1) / (f_norm if f_norm > 0 else 1.0)
    res2 = np.linalg.norm(r2) / max(np.linalg.norm(g), 1.0)

    bound_U = bound_P = None
    if constants is not None:
        f_dual = np.linalg.norm(st.L_V.solve(f))
        a0, k0, na = constants.alpha0, constants.k0, constants.norm_A
        bound_U = float(f_dual / a0 + (na / a0 + 1.0) / k0 * g_dual)
        bound_P = float((1.0 + na / a0) / k0 * f_dual + na / k0**2 * (1.0 + na / a0) * g_dual)
    U, P = V.from_sectors(u), Q.from_sectors(p)
    return MixedSolution(U, P, res1, res2, float(np.sqrt(norm_U)), float(np.sqrt(norm_P)), bound_U, bound_P)


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
