"""Assembly of the grouped mixed system on the unit cube.

The first-group form couples the heat-flux field with the stress/pressure
pair; the constraint form pairs (sigma, s, p) against (u, theta). Boundary
integrals reduce to componentwise face integrals because every cube face
carries a constant axis-aligned frame. Matrix rows always index the test
function of the grouped system; the standalone sub-form builders return
matrices with rows indexing the first form argument.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .ellipticity import OperatorSpec, gradient_coupling
from .spaces import DiscreteSpaces, ScalarBasis
from .tensors import projection_matrix2, projection_matrix3

STF_GRADIENT = OperatorSpec("stf2", "Stf", 3)  # Stf D sigma of the stress form


@dataclass(frozen=True)
class ModelParams:
    """Knudsen number, modified accommodation factor, velocity prescription strength."""

    kn: float = 1.0
    chi_tilde: float = 1.0
    epsilon_w: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.kn, self.chi_tilde, self.epsilon_w))):
            raise ValueError("model parameters must be finite")
        if not self.kn > 0:
            raise ValueError("kn must be positive")
        if not self.chi_tilde > 0:
            raise ValueError("chi_tilde must be positive")
        if self.epsilon_w < 0:
            raise ValueError("epsilon_w must be nonnegative")


def _zeros6():
    return np.zeros(6)


@dataclass
class BoundaryData:
    """Constant wall data per cube face, ordered as spaces.faces (x0 x1 y0 y1 z0 z1)."""

    u_n_w: np.ndarray = field(default_factory=_zeros6)
    u_t1_w: np.ndarray = field(default_factory=_zeros6)
    u_t2_w: np.ndarray = field(default_factory=_zeros6)
    p_w: np.ndarray = field(default_factory=_zeros6)
    theta_w: np.ndarray = field(default_factory=_zeros6)

    def __post_init__(self):
        for name in ("u_n_w", "u_t1_w", "u_t2_w", "p_w", "theta_w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape == ():
                arr = np.full(6, float(arr))
            if arr.shape != (6,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be 6 finite per-face values")
            setattr(self, name, arr)


@dataclass
class VolumeSources:
    """Volume data: mass source, body force, energy source as callables of points."""

    m_src: callable = None
    b: callable = None
    r_src: callable = None

    def mass(self, pts):
        return np.zeros(pts.shape[0]) if self.m_src is None else np.asarray(self.m_src(pts), float)

    def body(self, pts):
        return np.zeros((pts.shape[0], 3)) if self.b is None else np.asarray(self.b(pts), float)

    def energy(self, pts):
        return np.zeros(pts.shape[0]) if self.r_src is None else np.asarray(self.r_src(pts), float)


KERNEL_RTOL = 1e-10  # relative singular-value cutoff of every rank decision


(_trtrs,) = sla.get_lapack_funcs(("trtrs",), (np.empty(0),))


class BlockCholesky:
    """Lower Cholesky factor of a block-diagonal symmetric positive definite matrix.

    One dense factor per diagonal block, each paired with the indices of its
    rows; built from a matrix, the blocks are the finest contiguous diagonal
    blocks of its nonzero pattern.
    """

    def __init__(self, blocks):
        # (indices, lower factor) pairs; Fortran order, as LAPACK takes them
        self.blocks = tuple((idx, np.asfortranarray(L)) for idx, L in blocks)

    @classmethod
    def of(cls, M: np.ndarray) -> BlockCholesky:
        n = M.shape[0]
        last = n - 1 - np.argmax(M[:, ::-1] != 0, axis=1)  # last nonzero column of each row
        ends = np.flatnonzero(np.maximum.accumulate(last) <= np.arange(n)) + 1
        return cls(
            (slice(a, b), sla.cholesky(M[a:b, a:b], lower=True)) for a, b in zip(np.r_[0, ends[:-1]], ends)
        )

    def solve(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """L^-1 x, or L^-T x for trans=1; x is a vector or a matrix of columns.

        LAPACK trtrs is called directly: the blocks are small and many, and
        scipy's solve_triangular costs about ten times the solve itself
        there. A Cholesky factor has a positive diagonal, so trtrs cannot
        report a singular one.
        """
        out = np.empty(x.shape)
        for idx, L in self.blocks:
            out[idx] = _trtrs(L, x[idx], lower=1, trans=trans)[0]
        return out

    def matvec(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """L x, or L^T x for trans=1."""
        out = np.empty(x.shape)
        for idx, L in self.blocks:
            out[idx] = (L.T if trans else L) @ x[idx]
        return out


def subproblems(spaces: DiscreteSpaces) -> tuple:
    """(V indices, Q indices) of the momentum (sigma, p | u) and energy (s | theta) subproblems."""
    vb, qb = spaces.v_blocks, spaces.q_blocks
    return (np.r_[vb["sigma"], vb["p"]], np.r_[qb["u"]]), (np.r_[vb["s"]], np.r_[qb["theta"]])


def _runs(idx: np.ndarray) -> list[tuple[slice, slice]]:
    """(local, global) slices of the contiguous runs of an increasing index array."""
    cuts = np.r_[0, np.flatnonzero(np.diff(idx) != 1) + 1, idx.size]
    return [(slice(a, b), slice(idx[a], idx[b - 1] + 1)) for a, b in zip(cuts[:-1], cuts[1:])]


MIRROR_RTOL = 1e-12  # largest off-sector entry of a mirror-invariant matrix, relative to its largest sector entry


def _shift(sl: slice, offset: int) -> slice:
    return slice(sl.start + offset, sl.stop + offset)


def _box(mask: np.ndarray) -> tuple:
    """The slices of the box that the True entries of mask fill."""
    idx = np.nonzero(mask)
    if not idx[0].size:
        return (slice(0, 0),) * mask.ndim
    box = tuple(slice(i.min(), i.max() + 1) for i in idx)
    if mask[box].size != idx[0].size:
        raise ValueError("a sector of a field block is not a box of its coordinates")
    return box


class Sectors:
    """V or Q grouped by sector and inside each sector by subproblem.

    `basis` lists the field blocks as spaces.MirrorBasis does, as (slice,
    sector labels). The sector coordinates list the coordinates sector by
    sector, momentum before energy: `order` maps them to coordinates,
    `sectors` holds each sector's slice of them and `split` the number of
    its momentum coordinates. `boxes` gives per field block and sector the
    box of the block's coordinates in the sector (its labels' shape), and
    the offset and the size of the box in the sector, where its coordinates
    are contiguous.
    """

    def __init__(self, basis: list, momentum: np.ndarray, count: int):
        self.basis = basis
        labels = np.concatenate([lab.ravel() for _, lab in basis])
        energy = np.ones(labels.size, dtype=int)
        energy[momentum] = 0
        self.order = np.lexsort((energy, labels))
        bounds = np.searchsorted(labels[self.order], np.arange(count + 1))
        self.sectors = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.split = [int(np.sum(energy[self.order[sl]] == 0)) for sl in self.sectors]
        local = np.empty(labels.size, dtype=int)
        local[self.order] = np.arange(labels.size) - bounds[labels[self.order]]
        self.boxes = []
        for sl, lab in basis:
            boxes = []
            for s in range(count):
                mask = lab == s
                first = np.flatnonzero(mask.ravel())[:1]
                boxes.append((_box(mask), int(local[sl][first[0]]) if first.size else 0, int(mask.sum())))
            self.boxes.append(boxes)

    def to_sectors(self, x: np.ndarray) -> np.ndarray:
        """Sector coordinates of a vector."""
        return x[self.order]

    def from_sectors(self, y: np.ndarray) -> np.ndarray:
        """The vector with sector coordinates y."""
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _sector_blocks(M: np.ndarray, rows: Sectors, cols: Sectors) -> tuple[list, bool]:
    """(diagonal sector blocks of M in sector coordinates, whether M is mirror-invariant).

    M counts as mirror-invariant when no entry the blocks leave out exceeds
    MIRROR_RTOL times their largest entry.

    It takes one pair of field blocks of M at a time and skips the pairs
    that M does not couple. Each sector's entries of a pair are one box of
    it, copied out by slices.
    """
    out = [np.zeros((r.stop - r.start, c.stop - c.start)) for r, c in zip(rows.sectors, cols.sectors)]
    dropped = 0.0
    for (rsl, rlab), rboxes in zip(rows.basis, rows.boxes):
        coupled = M[rsl].any(axis=0)
        for (csl, clab), cboxes in zip(cols.basis, cols.boxes):
            if not coupled[csl].any():
                continue
            X = M[rsl, csl].reshape(rlab.shape + clab.shape).copy()
            for S, (rbox, roff, nr), (cbox, coff, nc) in zip(out, rboxes, cboxes):
                piece = X[rbox + cbox]
                S[roff : roff + nr, coff : coff + nc] = piece.reshape(nr, nc)
                piece[...] = 0.0
            dropped = max(dropped, float(np.abs(X).max()))
    kept = max((float(np.abs(S).max()) for S in out if S.size), default=0.0)
    return out, dropped <= MIRROR_RTOL * kept


@dataclass(eq=False)
class SaddlePart:
    """One (sector, subproblem) of a SaddleStructure.

    It holds its blocks of B, M_V and M_Q, its sector, its subproblem (0
    momentum, 1 energy), its slices v and q of the structure's sector
    coordinates, and its slice `local` of its sector's V coordinates. It
    builds on first use the block Cholesky factors of its M_V and M_Q
    blocks and one SVD of its block of B in those norms, of which it keeps
    U and the singular values.
    """

    B: np.ndarray
    M_V: np.ndarray
    M_Q: np.ndarray
    sector: int
    subproblem: int
    v: slice
    q: slice
    local: slice

    @cached_property
    def cholesky(self) -> tuple[BlockCholesky, BlockCholesky]:
        """Factors (L_V, L_Q) of the part's M_V and M_Q blocks, in the part's own indices,
        each one dense block: a part is small, and fewer blocks mean fewer LAPACK calls."""
        return tuple(BlockCholesky([(slice(0, M.shape[0]), sla.cholesky(M, lower=True))]) for M in (self.M_V, self.M_Q))

    @cached_property
    def whitened_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, svals) of X_i, svals descending; U is square, and past the rank it spans L_Q^T ker B_i^T."""
        L_V, L_Q = self.cholesky
        X = L_V.solve(L_Q.solve(self.B).T).T
        U, svals, _ = sla.svd(X, full_matrices=X.shape[0] > X.shape[1])
        return U, svals

    def constraint(self, rank: int) -> np.ndarray:
        """C_i = U_r^T L_Q^-1 B_i for the leading rank columns U_r of U: full
        row rank and ker C_i = ker B_i. Built anew on each use, not kept."""
        return self.whitened_svd[0][:, :rank].T @ self.cholesky[1].solve(self.B)


@dataclass(eq=False)
class SaddleStructure:
    """B, M_V and M_Q of one spaces: the matrices that do not depend on ModelParams.

    Every operator assembled on the spaces shares them. They commute with
    the cube's three mirror reflections and never couple the momentum and
    the energy subproblem (`subproblems`). Every coordinate of V and Q has
    its sector (the spaces' MirrorBasis), so they split into 8 sectors, and
    each sector into its two subproblems: 16 parts (SaddlePart), each
    about 1/16 of the whole. Every derived quantity comes from the parts
    and is combined exactly: the Cholesky factors of M_V and M_Q, and the
    SVD of B in those norms with the one rank decision cut on it. A matrix
    with an off-sector entry above MIRROR_RTOL times its largest sector
    entry, such as a hand-edited B, is not mirror-invariant: then, or with
    mirrored False, the structure has one sector of two parts, through the
    same code. Construction raises when B, M_V or M_Q has a nonzero entry
    between the subproblems.
    """

    B: np.ndarray
    M_V: np.ndarray
    M_Q: np.ndarray
    spaces: DiscreteSpaces
    mirrored: bool = True
    V: Sectors = field(init=False, repr=False)
    Q: Sectors = field(init=False, repr=False)
    parts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        subs = subproblems(self.spaces)
        for (va, qa), (vb, qb) in itertools.permutations(subs, 2):
            for M, rows, cols in ((self.B, qa, vb), (self.M_V, va, vb), (self.M_Q, qa, qb)):
                if any(np.any(M[r, c]) for _, r in _runs(rows) for _, c in _runs(cols)):
                    raise ValueError("B, M_V or M_Q couples the momentum and energy subproblems")
        mirror = self.spaces.mirror
        blocks = self._split(mirror.V, mirror.Q, 8, subs) if self.mirrored else None
        if blocks is None:
            self.mirrored = False
            trivial = ([(sl, np.zeros(lab.size, dtype=int)) for sl, lab in b] for b in (mirror.V, mirror.Q))
            blocks = self._split(*trivial, 1, subs)
        parts = []
        for s, (B_s, MV_s, MQ_s) in enumerate(zip(*blocks)):
            vs, qs, kv, kq = self.V.sectors[s], self.Q.sectors[s], self.V.split[s], self.Q.split[s]
            halves = ((slice(0, kv), slice(0, kq)), (slice(kv, vs.stop - vs.start), slice(kq, qs.stop - qs.start)))
            for sub, (lv, lq) in enumerate(halves):
                blk = (B_s[lq, lv].copy(), MV_s[lv, lv].copy(), MQ_s[lq, lq].copy())
                parts.append(SaddlePart(*blk, s, sub, _shift(lv, vs.start), _shift(lq, qs.start), lv))
        self.parts = tuple(parts)

    def _split(self, v_basis: list, q_basis: list, count: int, subs: tuple):
        """Sector blocks of B, M_V and M_Q in these bases; None if one leaves an entry above MIRROR_RTOL."""
        self.V, self.Q = Sectors(v_basis, subs[0][0], count), Sectors(q_basis, subs[0][1], count)
        out = []
        for M, rows, cols in ((self.B, self.Q, self.V), (self.M_V, self.V, self.V), (self.M_Q, self.Q, self.Q)):
            blocks, invariant = _sector_blocks(M, rows, cols)
            if not invariant:
                return None
            out.append(blocks)
        return out

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each part's block of B, cut once at KERNEL_RTOL (1e-10, the report's
        `kernel_rank_cutoff`) times the largest whitened singular value of the whole B:
        the one rank decision behind every kernel, cokernel and constant."""
        cut = KERNEL_RTOL * self.whitened_svals[0] if self.whitened_svals.size else 0.0
        return tuple(int(np.sum(p.whitened_svd[1] > cut)) for p in self.parts)

    @cached_property
    def L_V(self) -> BlockCholesky:
        """Block factor of M_V in sector coordinates, joined from the parts' factors."""
        return BlockCholesky((_shift(sl, p.v.start), L) for p in self.parts for sl, L in p.cholesky[0].blocks)

    @cached_property
    def whitened_svals(self) -> np.ndarray:
        """Singular values of L_Q^-1 B L_V^-T, descending: B in the natural norms."""
        return np.sort(np.concatenate([p.whitened_svd[1] for p in self.parts]))[::-1]

    @cached_property
    def load_maps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per sector, (Y, Z) on its Q coordinates, from its parts' U and L_Q.

        Y = [U_r^T; U_k^T] L_Q^-1 stacks the parts' rank rows, then their
        remaining rows: Y g holds a load's constraint rows, then its
        component against ker B^T, and |Y g| = |L_Q^-1 g|. Z = L_Q^-T U_r
        maps the sector's multipliers to its pressure.
        """
        out = []
        for s, qs in enumerate(self.Q.sectors):
            own = [(p, r) for p, r in zip(self.parts, self.ranks) if p.sector == s]
            rank = sum(r for _, r in own)
            Y, Z = np.zeros((qs.stop - qs.start,) * 2), np.zeros((qs.stop - qs.start, rank))
            row, kernel_row = 0, rank
            for p, r in own:
                W = p.cholesky[1].solve(p.whitened_svd[0], trans=1)  # L_Q^-T U
                lq = _shift(p.q, -qs.start)
                Y[row : row + r, lq] = W[:, :r].T
                Z[lq, row : row + r] = W[:, :r]
                Y[kernel_row : kernel_row + W.shape[1] - r, lq] = W[:, r:].T
                row, kernel_row = row + r, kernel_row + W.shape[1] - r
            out.append((Y, Z))
        return out


@dataclass(eq=False)
class SaddleOperator:
    """The primal form A of one (spaces, params) on the spaces' shared structure.

    `sectors` holds A's diagonal sector blocks in the structure's sector
    coordinates. `symmetric` records whether A is symmetric on the momentum
    and on the energy subproblem and skew between them, read in views of
    its blocks; when all three hold, as assembled, the sector blocks are
    made so to the bit. An A that is not mirror-invariant (MIRROR_RTOL)
    gets a private structure of one trivial sector. The operator keeps what
    saddlepoint factors on first use, valid for this A and structure only:
    in `bordered`, by part index, the LU of each part's bordered matrix
    (alpha0), and in `factors` the LU of each sector's saddle matrix (the
    solve). `saddlepoint._operator` decides who uses it.
    """

    A: np.ndarray
    structure: SaddleStructure
    symmetric: tuple = field(init=False)
    sectors: list = field(init=False, repr=False)
    bordered: dict = field(default_factory=dict, repr=False)
    factors: list | None = field(default=None, repr=False)

    def __post_init__(self):
        A, st = self.A, self.structure
        runs = [[g for _, g in _runs(v)] for v, _ in subproblems(st.spaces)]
        self.symmetric = (
            *(all(np.array_equal(A[a, b], A[b, a].T) for a in part for b in part) for part in runs),
            not any(np.any(A[a, b] + A[b, a].T) for a in runs[0] for b in runs[1]),
        )
        blocks, invariant = _sector_blocks(A, st.V, st.V)
        if not invariant:
            self.structure = st = SaddleStructure(st.B, st.M_V, st.M_Q, st.spaces, mirrored=False)
            blocks, _ = _sector_blocks(A, st.V, st.V)
        if all(self.symmetric):
            for S, k in zip(blocks, st.V.split):
                for d in (slice(0, k), slice(k, None)):
                    S[d, d] = 0.5 * (S[d, d] + S[d, d].T)
                S[k:, :k] = -S[:k, k:].T
        self.sectors = blocks


@dataclass
class MixedSystem:
    """Assembled saddle-point data: forms, norm matrices, loads, parameters."""

    A: np.ndarray
    B: np.ndarray
    M_V: np.ndarray
    M_Q: np.ndarray
    F: np.ndarray
    G: np.ndarray
    params: ModelParams
    spaces: DiscreteSpaces
    operator: SaddleOperator | None = field(default=None, repr=False, compare=False)


# -- frame component weights -----------------------------------------------


def _add(M, bi, bj, nr, nc, blk):
    M[bi * nr : (bi + 1) * nr, bj * nc : (bj + 1) * nc] += blk


# -- sub-forms ---------------------------------------------------------------


def _form_a(spaces, params):
    """Heat-flux form: rows and columns over the 3-component vector block."""
    sb = spaces.scalar
    n = sb.n
    kn, chi = params.kn, params.chi_tilde
    A = np.zeros((3 * n, 3 * n))
    grad_sum = sum(sb.dmat(al, al) for al in range(3))
    for i in range(3):
        for j in range(3):
            blk = np.zeros((n, n))
            if i == j:
                blk += 0.5 * (24.0 / 25.0) * kn * grad_sum
            blk += 0.5 * (24.0 / 25.0) * kn * sb.dmat(j, i)
            blk += (12.0 / 25.0) * kn * sb.dmat(i, j)
            if i == j:
                blk += (4.0 / 15.0) / kn * sb.mass()
            _add(A, i, j, n, n, blk)
    for f, fd in enumerate(sb.faces):
        Mf = sb.face_mass(f)
        nvec, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2
        for i in range(3):
            for j in range(3):
                w = 0.5 / chi * nvec[i] * nvec[j]
                w += (12.0 / 25.0) * chi * (t1[i] * t1[j] + t2[i] * t2[j])
                if w != 0.0:
                    _add(A, i, j, n, n, w * Mf)
    return A


def _form_c(spaces, params):
    """Coupling form c(r, sigma): rows vector block, columns stress block."""
    sb = spaces.scalar
    n = sb.n
    E = spaces.E
    C = np.zeros((3 * n, 5 * n))
    for i in range(3):
        for a in range(5):
            blk = np.zeros((n, n))
            for al in range(3):
                if E[a, i, al] != 0.0:
                    blk += (2.0 / 5.0) * E[a, i, al] * sb.vmat(al).T
            _add(C, i, a, n, n, blk)
    for f, (fd, w) in enumerate(zip(sb.faces, spaces.stress_face_weights)):
        Mf = sb.face_mass(f)
        nvec, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2
        for i in range(3):
            for a in range(5):
                coeff = -(3.0 / 20.0) * nvec[i] * w["nn"][a]
                coeff -= (1.0 / 5.0) * (t1[i] * w["nt1"][a] + t2[i] * w["nt2"][a])
                if coeff != 0.0:
                    _add(C, i, a, n, n, coeff * Mf)
    return C


def projected_gradient_gram(op: OperatorSpec, sb: ScalarBasis, weight: float = 1.0) -> np.ndarray:
    """Gram of weight * P[field otimes grad] over the component blocks of sb.

    Block (a, b) is sum_kl weight H[a,k,b,l] dmat(k, l) with the coupling H
    of the operator's domain basis (for stf fields, the stress basis E).
    """
    H = gradient_coupling(op)
    nc, n = H.shape[0], sb.n
    G = np.zeros((nc * n, nc * n))
    for a in range(nc):
        for b in range(nc):
            blk = G[a * n : (a + 1) * n, b * n : (b + 1) * n]
            for k in range(op.dim):
                for l in range(op.dim):
                    if abs(H[a, k, b, l]) > 1e-15:
                        blk += weight * H[a, k, b, l] * sb.dmat(k, l)
    return G


def _form_d(spaces, params):
    """Stress form: rows and columns over the 5-component stf block."""
    sb = spaces.scalar
    n = sb.n
    kn, chi, eps = params.kn, params.chi_tilde, params.epsilon_w
    D = projected_gradient_gram(STF_GRADIENT, sb, kn)
    for a in range(5):
        _add(D, a, a, n, n, 0.5 / kn * sb.mass())
    for f, w in enumerate(spaces.stress_face_weights):
        Mf = sb.face_mass(f)
        w_tot = w["t1t1"] + 0.5 * w["nn"]
        comp = (9.0 / 8.0) * chi * np.outer(w["nn"], w["nn"])
        comp += chi * np.outer(w_tot, w_tot)
        comp += chi * np.outer(w["t1t2"], w["t1t2"])
        comp += (1.0 / chi) * (np.outer(w["nt1"], w["nt1"]) + np.outer(w["nt2"], w["nt2"]))
        comp += eps * chi * np.outer(w["nn"], w["nn"])
        for a in range(5):
            for b in range(5):
                if abs(comp[a, b]) > 1e-15:
                    _add(D, a, b, n, n, comp[a, b] * Mf)
    return D


def _form_b(spaces, params):
    """b(theta, r): rows scalar block, columns vector block."""
    sb, pb = spaces.scalar, spaces.scalar_pq
    n = sb.n
    B = np.zeros((pb.n, 3 * n))
    for j in range(3):
        B[:, j * n : (j + 1) * n] = pb.vmat(j, sb)
    return B


def _form_e(spaces, params):
    """e(u, psi): rows vector block, columns stress block."""
    sb, pb = spaces.scalar, spaces.scalar_pq
    n, m = sb.n, pb.n
    E = spaces.E
    M = np.zeros((3 * m, 5 * n))
    for i in range(3):
        for a in range(5):
            blk = np.zeros((m, n))
            for al in range(3):
                if E[a, i, al] != 0.0:
                    blk += E[a, i, al] * pb.vmat(al, sb)
            _add(M, i, a, m, n, blk)
    return M


def _form_f(spaces, params):
    """f(p, psi): rows constrained pressure block, columns stress block."""
    sb, pb = spaces.scalar, spaces.scalar_pq
    n = sb.n
    coeff = params.epsilon_w * params.chi_tilde
    raw = np.zeros((pb.n, 5 * n))
    if coeff != 0.0:
        for f, w in enumerate(spaces.stress_face_weights):
            Mf = pb.face_mass(f, sb)
            for a in range(5):
                if abs(w["nn"][a]) > 1e-15:
                    raw[:, a * n : (a + 1) * n] += coeff * w["nn"][a] * Mf
    return spaces.Cp.T @ raw


def _form_g(spaces, params):
    """g(p, v): rows constrained pressure block, columns velocity block."""
    pb = spaces.scalar_pq
    m = pb.n
    raw = np.zeros((m, 3 * m))
    for i in range(3):
        raw[:, i * m : (i + 1) * m] = pb.vmat(i).T
    return spaces.Cp.T @ raw


def _form_h(spaces, params):
    """h(p, q): boundary pressure mass, constrained coordinates."""
    pb = spaces.scalar_pq
    coeff = params.epsilon_w * params.chi_tilde
    raw = np.zeros((pb.n, pb.n))
    if coeff != 0.0:
        for f in range(len(pb.faces)):
            raw += coeff * pb.face_mass(f)
    return spaces.Cp.T @ raw @ spaces.Cp


def _form_dbar(spaces, params):
    """Stress/pressure form with the total-pressure boundary term: [[d, f^T], [f, h]]."""
    Fm = _form_f(spaces, params)
    return np.block([[_form_d(spaces, params), Fm.T], [Fm, _form_h(spaces, params)]])


def _assemble_A(spaces, params):
    n = spaces.n_scalar
    nV = spaces.n_V
    vb = spaces.v_blocks
    A = np.zeros((nV, nV))
    # the symmetric forms a, d and h enter as (M + M^T)/2, symmetric to the
    # bit, so the symmetric part of A equals A on each subproblem's block
    for block, form in (("s", _form_a), ("sigma", _form_d), ("p", _form_h)):
        M = form(spaces, params)
        A[vb[block], vb[block]] = 0.5 * (M + M.T)
    C = _form_c(spaces, params)
    A[vb["sigma"], vb["s"]] = C.T
    A[vb["s"], vb["sigma"]] = -C
    Fm = _form_f(spaces, params)
    A[vb["sigma"], vb["p"]] = Fm.T
    A[vb["p"], vb["sigma"]] = Fm
    return A


def _assemble_B(spaces, params):
    qb, vb = spaces.q_blocks, spaces.v_blocks
    B = np.zeros((spaces.n_Q, spaces.n_V))
    B[qb["u"], vb["sigma"]] = -_form_e(spaces, params)
    B[qb["u"], vb["p"]] = -_form_g(spaces, params).T
    B[qb["theta"], vb["s"]] = -_form_b(spaces, params)
    return B


def _assemble_MV(spaces):
    sb = spaces.scalar
    n = sb.n
    h1 = sb.h1()
    M = np.zeros((spaces.n_V, spaces.n_V))
    for a in range(5):
        _add(M, a, a, n, n, h1)
    off = 5 * n
    for i in range(3):
        M[off + i * n : off + (i + 1) * n, off + i * n : off + (i + 1) * n] = h1
    M[spaces.v_blocks["p"], spaces.v_blocks["p"]] = spaces.Cp.T @ spaces.scalar_pq.h1() @ spaces.Cp
    return M


def _assemble_MQ(spaces):
    pb = spaces.scalar_pq
    n = pb.n
    mass = pb.mass()
    M = np.zeros((spaces.n_Q, spaces.n_Q))
    for i in range(4):
        _add(M, i, i, n, n, mass)
    return M


def assemble_form(form_id: str, spaces: DiscreteSpaces, params: ModelParams) -> np.ndarray:
    """Assemble one bilinear form or norm matrix by identifier."""
    builders = {
        "a": _form_a,
        "b": _form_b,
        "c": _form_c,
        "d": _form_d,
        "e": _form_e,
        "f": _form_f,
        "g": _form_g,
        "h": _form_h,
        "dbar": _form_dbar,
        "A": _assemble_A,
        "B": _assemble_B,
        "MV": lambda sp, pa: _assemble_MV(sp),
        "MQ": lambda sp, pa: _assemble_MQ(sp),
    }
    if form_id not in builders:
        raise ValueError(f"unknown form_id {form_id!r}")
    return builders[form_id](spaces, params)


# -- load functionals --------------------------------------------------------


def assemble_load(
    spaces: DiscreteSpaces,
    params: ModelParams,
    sources: VolumeSources | None = None,
    bdata: BoundaryData | None = None,
):
    """Right-hand sides (F, G) from wall data and volume sources."""
    sources = sources or VolumeSources()
    bdata = bdata or BoundaryData()
    sb, pb = spaces.scalar, spaces.scalar_pq
    n, m = sb.n, pb.n
    chi, eps = params.chi_tilde, params.epsilon_w

    F = np.zeros(spaces.n_V)
    G = np.zeros(spaces.n_Q)
    pts = sb.points
    wq = sb.weights
    m_vals = sources.mass(pts)
    b_vals = sources.body(pts)
    r_vals = sources.energy(pts)

    raw_p = pb.phi.T @ (wq * m_vals)
    for f, (fd, w) in enumerate(zip(sb.faces, spaces.stress_face_weights)):
        fint = sb.face_integrals(f)
        nvec = fd.frame.n
        eff_un = bdata.u_n_w[f] - eps * chi * bdata.p_w[f]
        # wall temperature drives the heat-flux test functions
        for i in range(3):
            F[spaces.v_blocks["s"]][i * n : (i + 1) * n] += -bdata.theta_w[f] * nvec[i] * fint
        # wall velocity and pressure drive the stress test functions
        for a in range(5):
            coeff = (
                bdata.u_t1_w[f] * w["nt1"][a]
                + bdata.u_t2_w[f] * w["nt2"][a]
                + eff_un * w["nn"][a]
            )
            F[spaces.v_blocks["sigma"]][a * n : (a + 1) * n] += -coeff * fint
        raw_p -= eff_un * pb.face_integrals(f)
    F[spaces.v_blocks["p"]] = spaces.Cp.T @ raw_p

    for i in range(3):
        G[spaces.q_blocks["u"]][i * m : (i + 1) * m] = -(pb.phi.T @ (wq * b_vals[:, i]))
    G[spaces.q_blocks["theta"]] = -(pb.phi.T @ (wq * (r_vals - m_vals)))
    return F, G


def assemble_system(
    spaces: DiscreteSpaces,
    params: ModelParams,
    sources: VolumeSources | None = None,
    bdata: BoundaryData | None = None,
) -> MixedSystem:
    """Assemble the loads of the mixed problem on its shared matrices.

    B, M_V and M_Q are assembled once per spaces and A once per (spaces,
    params); all are read-only. Every system built on the spaces shares
    one structure, and every system built on the same parameters one
    operator, while one of them is alive.
    """
    st = spaces.structure and spaces.structure()
    if st is None:
        B, M_V, M_Q = _assemble_B(spaces, params), _assemble_MV(spaces), _assemble_MQ(spaces)
        for M in (B, M_V, M_Q):
            M.setflags(write=False)
        st = SaddleStructure(B, M_V, M_Q, spaces)
        spaces.structure = weakref.ref(st)
    op = spaces.operators.get(params)
    if op is None:
        A = _assemble_A(spaces, params)
        A.setflags(write=False)
        op = SaddleOperator(A=A, structure=st)
        spaces.operators[params] = op
    F, G = assemble_load(spaces, params, sources, bdata)
    return MixedSystem(
        A=op.A,
        B=st.B,
        M_V=st.M_V,
        M_Q=st.M_Q,
        F=F,
        G=G,
        params=params,
        spaces=spaces,
        operator=op,
    )


# -- closures and wall-relation residuals ------------------------------------


def compute_closures(sigma, s, spaces, params, face: int | None = None):
    """Highest-order moments from the regularized closure relations.

    Evaluates m = -2 Kn Stf D sigma, R = -(24/5) Kn stf D s and
    Delta = -12 Kn div s at the volume quadrature points (or at the
    quadrature points of one face), differentiating the polynomial
    basis exactly.
    """
    sb = spaces.scalar
    dphi = sb.dphi if face is None else sb.faces[face].dphi
    gs = np.einsum("iI,kqI->qik", np.asarray(s), dphi)
    gsig = np.einsum("aI,kqI->qak", np.asarray(sigma), dphi)
    E = spaces.E
    dsig = np.einsum("qak,aij->qijk", gsig, E)
    P3 = projection_matrix3("Stf", 3)
    nq = dsig.shape[0]
    m3 = -2.0 * params.kn * (dsig.reshape(nq, 27) @ P3.T).reshape(nq, 3, 3, 3)
    P2 = projection_matrix2("stf", 3)
    R2 = -(24.0 / 5.0) * params.kn * (gs.reshape(nq, 9) @ P2.T).reshape(nq, 3, 3)
    delta = -12.0 * params.kn * np.einsum("qii->q", gs)
    return m3, R2, delta


def bc_residuals(U, P, spaces, params, bdata: BoundaryData | None = None):
    """L2 boundary norms of the seven Onsager wall relations.

    The tangential stress and tangential R relations aggregate both
    tangent directions into one norm each. u and theta traces come from
    the discrete polynomial representatives (diagnostic only).
    """
    bdata = bdata or BoundaryData()
    chi, eps = params.chi_tilde, params.epsilon_w
    sig, s, p = spaces.split_V(np.asarray(U))
    u, theta = spaces.split_Q(np.asarray(P))
    sq = {k: 0.0 for k in range(1, 8)}
    for f, (fd, w) in enumerate(zip(spaces.faces, spaces.stress_face_weights)):
        phi, phi_pq = fd.phi, spaces.scalar_pq.faces[f].phi
        wq = fd.weights
        nvec, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2
        sig_vals = {key: (w[key] @ sig) @ phi.T for key in w}
        s_comp = {
            "n": (nvec @ s) @ phi.T,
            "t1": (t1 @ s) @ phi.T,
            "t2": (t2 @ s) @ phi.T,
        }
        u_comp = {
            "n": (nvec @ u) @ phi_pq.T,
            "t1": (t1 @ u) @ phi_pq.T,
            "t2": (t2 @ u) @ phi_pq.T,
        }
        p_vals = phi_pq @ p
        th_vals = phi_pq @ theta
        m3, R2, delta = compute_closures(sig, s, spaces, params, face=f)
        m_nnn = np.einsum("qijk,i,j,k->q", m3, nvec, nvec, nvec)
        m_nnt = {
            1: np.einsum("qijk,i,j,k->q", m3, nvec, nvec, t1),
            2: np.einsum("qijk,i,j,k->q", m3, nvec, nvec, t2),
        }
        m_nt1t1 = np.einsum("qijk,i,j,k->q", m3, nvec, t1, t1)
        m_nt1t2 = np.einsum("qijk,i,j,k->q", m3, nvec, t1, t2)
        R_nn = np.einsum("qij,i,j->q", R2, nvec, nvec)
        R_nt = {
            1: np.einsum("qij,i,j->q", R2, nvec, t1),
            2: np.einsum("qij,i,j->q", R2, nvec, t2),
        }

        du = {i: u_comp[f"t{i}"] - getattr(bdata, f"u_t{i}_w")[f] for i in (1, 2)}
        r1 = (u_comp["n"] - bdata.u_n_w[f]) - eps * chi * (
            (p_vals - bdata.p_w[f]) + sig_vals["nn"]
        )
        r2 = [
            sig_vals[f"nt{i}"] - chi * (du[i] + 0.2 * s_comp[f"t{i}"] + m_nnt[i])
            for i in (1, 2)
        ]
        r3 = [
            R_nt[i] - chi * (-du[i] + 2.2 * s_comp[f"t{i}"] - m_nnt[i])
            for i in (1, 2)
        ]
        dth = th_vals - bdata.theta_w[f]
        r4 = s_comp["n"] - chi * (
            2.0 * dth + 0.5 * sig_vals["nn"] + 0.4 * R_nn + (2.0 / 15.0) * delta
        )
        r5 = m_nnn - chi * (
            -0.4 * dth + 1.4 * sig_vals["nn"] - 0.08 * R_nn - (2.0 / 75.0) * delta
        )
        r6 = (0.5 * m_nnn + m_nt1t1) - chi * (0.5 * sig_vals["nn"] + sig_vals["t1t1"])
        r7 = m_nt1t2 - chi * sig_vals["t1t2"]

        sq[1] += np.sum(wq * r1**2)
        sq[2] += sum(np.sum(wq * r**2) for r in r2)
        sq[3] += sum(np.sum(wq * r**2) for r in r3)
        sq[4] += np.sum(wq * r4**2)
        sq[5] += np.sum(wq * r5**2)
        sq[6] += np.sum(wq * r6**2)
        sq[7] += np.sum(wq * r7**2)
    keys = [
        "normal_velocity",
        "tangential_stress",
        "tangential_R",
        "normal_heat_flux",
        "m_nnn",
        "m_nnn_t1t1",
        "m_nt1t2",
    ]
    return {k: float(np.sqrt(sq[i + 1])) for i, k in enumerate(keys)}
