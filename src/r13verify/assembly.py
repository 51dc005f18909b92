"""Assembly of the grouped mixed system on the unit cube.

The first-group form couples the heat-flux field with the stress/pressure
pair; the constraint form pairs (sigma, s, p) against (u, theta). Boundary
integrals reduce to componentwise face integrals because every cube face
carries a constant axis-aligned frame. Each form is assembled straight
into its mirror-sector blocks from the 1D factors of the scalar bases;
matrix rows index the test function of the grouped system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .ellipticity import OperatorSpec, gradient_coupling
from .spaces import DiscreteSpaces, Sectors, _kron_all, dmat_names
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


_trtrs, _potrf = sla.get_lapack_funcs(("trtrs", "potrf"), (np.empty(0),))


def trsolve(L: np.ndarray, x: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 x, or L^-T x for trans=1, for a lower Cholesky factor L and a vector or matrix x:
    LAPACK trtrs directly, as scipy's solve_triangular costs about ten times the solve on
    these small factors. A Cholesky factor has a positive diagonal: trtrs cannot fail."""
    return _trtrs(L, x, lower=1, trans=trans)[0]


@dataclass(eq=False)
class SaddlePart:
    """One (orbit, subproblem) of a SaddleStructure: its block of B and the factors of its M_V and M_Q.

    A block is the same on every sector of the orbit, in the carried
    sector coordinates; the structure holds the part at index
    2 orbit + subproblem, and V.parts and Q.parts at that index give its
    slices of a sector's coordinates. `cholesky` holds the plain lower
    Cholesky factors (L_V, L_Q) of its M_V and M_Q blocks (`factor`), not
    the blocks. It builds on first use one SVD of its block of B in those
    norms, of which it keeps U and the singular values.
    """

    B: np.ndarray
    cholesky: tuple[np.ndarray, np.ndarray]

    @classmethod
    def factor(cls, B: np.ndarray, M_V: np.ndarray, M_Q: np.ndarray) -> SaddlePart:
        """The part of blocks B, M_V and M_Q, each factor one potrf in place on a Fortran-ordered block, with
        scipy.linalg.cholesky's bits and checks: a ValueError if non-finite, a LinAlgError if not positive definite."""
        factors = [_potrf(np.asarray_chkfinite(M), lower=1, overwrite_a=1) for M in (M_V, M_Q)]
        if any(info for _, info in factors):
            raise np.linalg.LinAlgError("a block of M_V or M_Q is not positive definite (potrf)")
        return cls(B, tuple(L for L, _ in factors))

    @cached_property
    def whitened_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, svals) of X_i, svals descending; U is square, and past the rank it spans L_Q^T ker B_i^T."""
        L_V, L_Q = self.cholesky
        X = trsolve(L_V, trsolve(L_Q, self.B).T).T
        U, svals, _ = sla.svd(X, full_matrices=X.shape[0] > X.shape[1])
        return U, svals

    def constraint(self, rank: int) -> np.ndarray:
        """C_i = U_r^T L_Q^-1 B_i for the leading rank columns U_r of U: full
        row rank and ker C_i = ker B_i. Built anew on each use, not kept. The product
        reads L_Q^-1 B_i in C order: its bits depend on the layout."""
        return self.whitened_svd[0][:, :rank].T @ np.ascontiguousarray(trsolve(self.cholesky[1], self.B))


def _scatter(blocks, rows: Sectors, cols: Sectors) -> np.ndarray:
    """The read-only dense matrix with each (block, orbit, rows, columns) on every sector of
    the orbit, at those slices of the sector's carried coordinates, carried back on both sides."""
    M = np.zeros((rows.order.size, cols.order.size))
    for X, o, r, c in blocks:
        for s in rows.orbits[o]:
            a, b = rows.sectors[s].start, cols.sectors[s].start
            M[a + r.start : a + r.stop, b + c.start : b + c.stop] = X
    M = rows.from_sectors(cols.from_sectors(M.T).T)
    M.setflags(write=False)
    return M


@dataclass(eq=False)
class SaddleStructure:
    """B, M_V and M_Q of one spaces, the matrices that do not depend on ModelParams, as 8 parts.

    The spaces keep it, and every operator assembled on them shares it. It
    holds no reference back to the spaces, so reference counting frees it
    with them. The matrices commute with the cube's three mirror
    reflections and never couple the momentum and the energy subproblem,
    so they split into 8 sectors of two subproblems each, and they commute
    with the swaps of the cube's axes, which map the sectors of an orbit
    onto each other: in V's and Q's carried sector coordinates (the
    spaces' own Sectors) every sector of an orbit has the same blocks.
    `parts` holds one SaddlePart per orbit and subproblem, 8 in all,
    assembled from the 1D factors (`_sector_assemble` by part) with M_V
    and M_Q blocks in Fortran order, factored in place. So every derived
    quantity is computed once per part and counts once per sector of its
    orbit: the Cholesky factors, the SVD of B in those norms and the one
    rank decision cut on it. The dense B, and M_V and M_Q assembled anew,
    are scattered by part and carried back on first access, and kept.
    """

    V: Sectors = field(repr=False)
    Q: Sectors = field(repr=False)
    parts: tuple = field(repr=False)

    @classmethod
    def assemble(cls, spaces: DiscreteSpaces) -> SaddleStructure:
        (V, Q), cache = spaces.sectors, {}
        B = _sector_assemble(_B_terms(spaces), Q, V, cache, by_part=True)
        M_V, M_Q = (_norm_blocks(S, h1, cache) for S, h1 in ((V, True), (Q, False)))
        return cls(V, Q, tuple(map(SaddlePart.factor, B, M_V, M_Q)))

    def _dense(self, blocks, rows: Sectors, cols: Sectors) -> np.ndarray:
        return _scatter(((X, i // 2, rows.parts[i], cols.parts[i]) for i, X in enumerate(blocks)), rows, cols)

    @cached_property
    def B(self) -> np.ndarray:
        return self._dense([p.B for p in self.parts], self.Q, self.V)

    @cached_property
    def M_V(self) -> np.ndarray:
        return self._dense(_norm_blocks(self.V, True, {}), self.V, self.V)

    @cached_property
    def M_Q(self) -> np.ndarray:
        return self._dense(_norm_blocks(self.Q, False, {}), self.Q, self.Q)

    @cached_property
    def cut(self) -> float:
        """KERNEL_RTOL (1e-10, the report's `kernel_rank_cutoff`) times the largest whitened
        singular value of the whole B: the cutoff of the one rank decision."""
        return float(KERNEL_RTOL * self.whitened_svals[0]) if self.whitened_svals.size else 0.0

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each part's block of B, its whitened singular values above `cut`: the one
        rank decision behind every kernel, cokernel and constant."""
        return tuple(int(np.sum(p.whitened_svd[1] > self.cut)) for p in self.parts)

    @cached_property
    def rank(self) -> int:
        """Rank of the whole B: each part's rank once per sector of its orbit."""
        return sum(len(self.V.orbits[i // 2]) * r for i, r in enumerate(self.ranks))

    @cached_property
    def whitened_svals(self) -> np.ndarray:
        """Singular values of L_Q^-1 B L_V^-T, descending: B in the natural norms, each part's
        once per sector of its orbit."""
        svals = [np.tile(p.whitened_svd[1], len(self.V.orbits[i // 2])) for i, p in enumerate(self.parts)]
        return np.sort(np.concatenate(svals))[::-1]

    @cached_property
    def load_maps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per orbit, (Y, Z) on a sector's carried Q coordinates, from its parts' U and L_Q.

        Y = [U_r^T; U_k^T] L_Q^-1 stacks the parts' rank rows, then their
        remaining rows: Y g holds a load's constraint rows, then its
        component against ker B^T, and |Y g| = |L_Q^-1 g|. Z = L_Q^-T U_r
        maps the sector's multipliers to its pressure.
        """
        out = []
        for o in range(len(self.Q.orbits)):
            own = range(2 * o, 2 * o + 2)
            n, rank = self.Q.parts[2 * o + 1].stop, sum(self.ranks[i] for i in own)
            Y, Z = np.zeros((n, n)), np.zeros((n, rank))
            row, kernel_row = 0, rank
            for i in own:
                k, W = self.ranks[i], trsolve(self.parts[i].cholesky[1], self.parts[i].whitened_svd[0], trans=1)  # L_Q^-T U
                lq = self.Q.parts[i]
                Y[row : row + k, lq] = W[:, :k].T
                Z[lq, row : row + k] = W[:, :k]
                Y[kernel_row : kernel_row + W.shape[1] - k, lq] = W[:, k:].T
                row, kernel_row = row + k, kernel_row + W.shape[1] - k
            out.append((Y, Z))
        return out


def _symmetrize(blocks: list, V: Sectors) -> list:
    """Make each orbit's block symmetric to the bit on both subproblems, (S + S^T)/2, and
    exactly skew between them, from its momentum-energy block."""
    for S, momentum in zip(blocks, V.parts[::2]):
        k = momentum.stop
        for d in (slice(0, k), slice(k, None)):
            S[d, d] = 0.5 * (S[d, d] + S[d, d].T)
        S[k:, :k] = -S[:k, k:].T
    return blocks


@dataclass(eq=False)
class SaddleOperator:
    """The primal form A of one (spaces, params) on the spaces' shared structure.

    `sectors` holds one block of A per orbit, on a sector's carried
    coordinates: A commutes with the swaps of the cube's axes as B does,
    so it is the block of every sector of the orbit (SaddleStructure).
    `assemble` builds them from the 1D factors and makes each symmetric to
    the bit on the momentum and the energy subproblem and exactly skew
    between them, as A is (`_symmetrize`); alpha0 relies on that. The
    dense A is scattered from the orbits' blocks and carried back on first
    access, then made exactly symmetric and skew again, and kept. The
    operator keeps in `factors`, per orbit, the LU of its saddle matrix,
    factored by saddlepoint on first use and valid for this A and
    structure only.
    """

    structure: SaddleStructure
    sectors: list = field(repr=False)
    factors: list | None = field(default=None, repr=False)

    @classmethod
    def assemble(cls, spaces: DiscreteSpaces, structure: SaddleStructure, params: ModelParams) -> SaddleOperator:
        V = structure.V
        return cls(structure, _symmetrize(_sector_assemble(_A_terms(spaces, params), V, V, {}), V))

    @cached_property
    def A(self) -> np.ndarray:
        V = self.structure.V
        A = _scatter(((S, o, slice(0, len(S)), slice(0, len(S))) for o, S in enumerate(self.sectors)), V, V)
        energy = np.concatenate([np.full(lab.size, sub == 1) for lab, (*_, sub) in zip(V.labels, V.fields)])
        A = np.where(energy[:, None] == energy[None, :], 0.5 * (A + A.T), np.where(energy[:, None], -A.T, A))
        A.setflags(write=False)
        return A


# -- sector assembly from 1D factors ----------------------------------------

SWAPS = {"m": 0, "k": 0, "P": 0, "d": 1, "dt": 1, "Q": 1}  # 1 where a 1D factor swaps parity
MASS = ("m", "m", "m")


def _vmat_names(b: int) -> tuple:
    return tuple("d" if a == b else "m" for a in range(3))


def _add(terms: dict, r: int, c: int, coef: float, names: tuple) -> None:
    if coef != 0.0:
        pair = terms.setdefault((r, c), {})
        pair[names] = pair.get(names, 0.0) + coef


def _add_faces(terms: dict, r: int, c: int, coefs: list) -> None:
    """Add the face integrals of phi_I psi_J times coefs[f][i, j] over the faces f = 2 axis + side
    to the pair (r + i, c + j): per axis, (c0 + c1) P + (c1 - c0) Q along it, the mass along the others."""
    for axis in range(3):
        c0, c1 = coefs[2 * axis], coefs[2 * axis + 1]
        for name, C in (("P", c0 + c1), ("Q", c1 - c0)):
            for i, j in zip(*np.nonzero(np.abs(C) > 1e-15)):
                _add(terms, r + i, c + j, C[i, j], tuple(name if a == axis else "m" for a in range(3)))


def _A_terms(spaces: DiscreteSpaces, params: ModelParams) -> dict:
    """A over the V field blocks (sigma 0-4, s 5-7, p 8) as {(r, c): {1D factor names: coef}}:
    the stress form d, the pressure's boundary terms f and h, the heat-flux form a, and
    of the skew pair only the (sigma, s) coupling c^T (`_symmetrize` sets -c)."""
    kn, chi, eps = params.kn, params.chi_tilde, params.epsilon_w
    terms = _gradient_terms(STF_GRADIENT, kn, {})
    for a in range(5):
        _add(terms, a, a, 0.5 / kn, MASS)
    for i in range(3):
        for al in range(3):
            _add(terms, 5 + i, 5 + i, 0.5 * (24.0 / 25.0) * kn, dmat_names(al, al))
        _add(terms, 5 + i, 5 + i, (4.0 / 15.0) / kn, MASS)
        for j in range(3):
            _add(terms, 5 + i, 5 + j, 0.5 * (24.0 / 25.0) * kn, dmat_names(j, i))
            _add(terms, 5 + i, 5 + j, (12.0 / 25.0) * kn, dmat_names(i, j))
        for a in range(5):
            for al in range(3):
                _add(terms, a, 5 + i, (2.0 / 5.0) * spaces.E[a, i, al], _vmat_names(al))
    walls: dict = {(0, 0): [], (5, 5): [], (0, 5): []}  # per face, the coefficients of its field pairs
    for fd, w in zip(spaces.faces, spaces.stress_face_weights):
        n, t1, t2 = fd.frame.n, fd.frame.t1, fd.frame.t2
        pairs = ((9.0 / 8.0 + eps) * chi, w["nn"]), (chi, w["t1t1"] + 0.5 * w["nn"]), (chi, w["t1t2"])
        pairs += (1.0 / chi, w["nt1"]), (1.0 / chi, w["nt2"])
        walls[0, 0].append(sum(c * np.outer(v, v) for c, v in pairs))
        tangential = np.outer(t1, t1) + np.outer(t2, t2)
        walls[5, 5].append(0.5 / chi * np.outer(n, n) + (12.0 / 25.0) * chi * tangential)
        walls[0, 5].append(-(3.0 / 20.0) * np.outer(w["nn"], n) - (np.outer(w["nt1"], t1) + np.outer(w["nt2"], t2)) / 5.0)
    if eps * chi != 0.0:
        walls[8, 0] = [eps * chi * w["nn"][None, :] for w in spaces.stress_face_weights]
        walls[0, 8] = [x.T for x in walls[8, 0]]
        walls[8, 8] = [np.full((1, 1), eps * chi)] * 6
    for (r, c), coefs in walls.items():
        _add_faces(terms, r, c, coefs)
    return terms


def _B_terms(spaces: DiscreteSpaces) -> dict:
    """B over the Q field blocks (u 0-2, theta 3) and V's: -e, -g^T and -b."""
    terms: dict = {}
    for i in range(3):
        for a in range(5):
            for al in range(3):
                _add(terms, i, a, -spaces.E[a, i, al], _vmat_names(al))
        _add(terms, i, 8, -1.0, _vmat_names(i))
        _add(terms, 3, 5 + i, -1.0, _vmat_names(i))
    return terms


def _norm_terms(count: int, h1: bool, dim: int = 3) -> dict:
    """The H1 (h1 True) or L2 gram on each of count field blocks."""
    names = [("m",) * dim] + [dmat_names(a, a, dim) for a in range(dim if h1 else 0)]
    return {(r, r): dict.fromkeys(names, 1.0) for r in range(count)}


def _norm_blocks(S: Sectors, h1: bool, cache: dict) -> list:
    """Per part, the block of the H1 (h1 True) or L2 gram on S, in Fortran order for potrf."""
    return _sector_assemble(_norm_terms(len(S.fields), h1), S, S, cache, by_part=True, order="F")


def _gradient_terms(op: OperatorSpec, weight: float, terms: dict) -> dict:
    """Add to terms the gram of weight * P[field otimes grad] over the component blocks of
    op's field: block (a, b) is the sum over (k, l) of weight H[a,k,b,l] dmat(k, l)."""
    H = gradient_coupling(op)
    for a, k, b, l in zip(*np.nonzero(np.abs(H) > 1e-15)):
        _add(terms, a, b, weight * H[a, k, b, l], dmat_names(k, l, op.dim))
    return terms


def _sector_assemble(terms: dict, rows: Sectors, cols: Sectors, cache: dict, by_part: bool = False, order: str = "C") -> list:
    """One block per orbit (by_part: per orbit and subproblem, at 2 orbit + subproblem) of the
    sum of coef times the Kronecker product of the named 1D factors (ScalarBasis.factors) over
    the field-block pairs (r, c) of terms.

    The field blocks are those of rows.fields and cols.fields
    (spaces.Sectors). In sector s the rows of r have the parities
    s ^ mask_r, so each factor gives one parity sub-block per axis; a term
    lands there when its factors swap parity on the axes of mask_r ^ mask_c,
    and is else off-sector and zero in exact arithmetic. Per (r, c) and
    sector, one stack of products (shared through cache) meets the
    coefficients in one product. R (the spaces' p_R) maps the zero-mean
    pressure's sector-0 coordinates to its fully even functions. With
    by_part, r and c lie in one subproblem. Only each orbit's
    representative is assembled: in the carried coordinates its block is
    that of every sector of the orbit, allocated in `order`.
    """
    rs, cs = (S.parts if by_part else [slice(0, p.stop) for p in S.parts[1::2]] for S in (rows, cols))
    out = [np.zeros((r.stop - r.start, c.stop - c.start), order=order) for r, c in zip(rs, cs)]
    orbit = {o[0]: j for j, o in enumerate(rows.orbits)}  # by representative
    for (r, c), pair in terms.items():
        (X, mr, Rr, _, ur), (Y, mc, Rc, _, _) = rows.fields[r], cols.fields[c]
        names = tuple(nm for nm in pair if sum(SWAPS[x] << a for a, x in enumerate(nm)) == mr ^ mc)
        if not names:
            continue
        coefs, fac, pair_key = np.array([pair[nm] for nm in names]), X.factors(Y), (id(X), id(Y))
        stacks = cache.setdefault((pair_key, names), {})  # by row parities
        for s, ((ro, nr), (co, nc)) in enumerate(zip(rows.boxes[r], cols.boxes[c])):
            if not nr * nc or s not in orbit:
                continue
            pr, pc, i = s ^ mr, s ^ mc, 2 * orbit[s] + ur if by_part else orbit[s]
            if pr not in stacks:
                for nm in names:  # its product of the 1D sub-blocks of the row and column parities
                    if (pair_key, nm, pr) not in cache:
                        f = [fac[x][X.parity[pr >> a & 1], Y.parity[pc >> a & 1]] for a, x in enumerate(nm)]
                        cache[pair_key, nm, pr] = _kron_all(f)
                K = np.array([cache[pair_key, nm, pr] for nm in names])
                stacks[pr] = (K.reshape(len(names), -1), K.shape[1:])
            K, shape = stacks[pr]
            blk = (coefs @ K).reshape(shape)
            if s == 0 and Rr is not None:
                blk = Rr.T @ blk
            if s == 0 and Rc is not None:
                blk = blk @ Rc
            ro, co = ro - rows.sectors[s].start - rs[i].start, co - cols.sectors[s].start - cs[i].start
            out[i][ro : ro + nr, co : co + nc] = blk
    return out


@dataclass
class MixedSystem:
    """Assembled saddle-point data: loads, parameters, spaces and the shared operator.

    The operator is the one its spaces keep for its params; only the loads
    are the system's own. Its matrices are the operator's: A, B, M_V and
    M_Q are read-only properties, the dense matrices scattered from the
    operator's sector blocks on first read. Constants and solves read the
    sector blocks, not these.
    """

    F: np.ndarray
    G: np.ndarray
    params: ModelParams
    spaces: DiscreteSpaces
    operator: SaddleOperator = field(repr=False, compare=False)

    @property
    def A(self) -> np.ndarray:
        return self.operator.A

    @property
    def B(self) -> np.ndarray:
        return self.operator.structure.B

    @property
    def M_V(self) -> np.ndarray:
        return self.operator.structure.M_V

    @property
    def M_Q(self) -> np.ndarray:
        return self.operator.structure.M_Q


def _shared_operator(spaces: DiscreteSpaces, params: ModelParams) -> SaddleOperator:
    """The operator of (spaces, params) on the spaces' structure; the spaces keep both, each
    assembled once."""
    if spaces.structure is None:
        spaces.structure = SaddleStructure.assemble(spaces)
    if params not in spaces.operators:
        spaces.operators[params] = SaddleOperator.assemble(spaces, spaces.structure, params)
    return spaces.operators[params]


# form id: (sign, matrix, row block, column block) of the cut; g is its cut transposed
FORMS = {
    "a": (1, "A", "s", "s"), "c": (-1, "A", "s", "sigma"), "d": (1, "A", "sigma", "sigma"),
    "f": (1, "A", "p", "sigma"), "h": (1, "A", "p", "p"), "dbar": (1, "A", "stress", "stress"),
    "b": (-1, "B", "theta", "s"), "e": (-1, "B", "u", "sigma"), "g": (-1, "B", "u", "p"),
    "A": (1, "A", "V", "V"), "B": (1, "B", "Q", "V"), "MV": (1, "M_V", "V", "V"), "MQ": (1, "M_Q", "Q", "Q"),
}


def assemble_form(form_id: str, spaces: DiscreteSpaces, params: ModelParams) -> np.ndarray:
    """One bilinear form or norm matrix by identifier (FORMS), read-only.

    "A", "B", "MV" and "MQ" are the dense matrices of the shared operator of
    (spaces, params). Each sub-form is the block of A or B it fills, or its
    negation, with rows indexing the first form argument and the pressure
    in the constrained coordinates: dbar = [[d, f^T], [f, h]].
    """
    if form_id not in FORMS:
        raise ValueError(f"unknown form_id {form_id!r}")
    sign, name, rows, cols = FORMS[form_id]
    op = _shared_operator(spaces, params)
    vb = spaces.v_blocks
    blocks = {**vb, **spaces.q_blocks, "stress": np.r_[vb["sigma"], vb["p"]], "V": slice(None), "Q": slice(None)}
    M = (op.A if name == "A" else getattr(op.structure, name))[blocks[rows]][:, blocks[cols]]
    M = -(M.T if form_id == "g" else M) if sign < 0 else M
    M.setflags(write=False)
    return M


# -- load functionals --------------------------------------------------------


def assemble_load(
    spaces: DiscreteSpaces,
    params: ModelParams,
    sources: VolumeSources | None = None,
    bdata: BoundaryData | None = None,
):
    """Right-hand sides (F, G) from wall data and volume sources (tabulated only if given).

    The wall part takes whole-array products of the spaces' face tables (`wall_table`, the
    bases' `face_integrals`), summed over the faces in face order: the bits of a face loop.
    """
    bdata = bdata or BoundaryData()
    sb, pb = spaces.scalar, spaces.scalar_pq
    chi, eps = params.chi_tilde, params.epsilon_w

    F, G, raw_p = np.zeros(spaces.n_V), np.zeros(spaces.n_Q), np.zeros(pb.n)
    if sources is not None:
        pts, wq = sb.points, sb.weights
        m_vals, r_vals = sources.mass(pts), sources.energy(pts)
        raw_p = pb.phi.T @ (wq * m_vals)
        G[spaces.q_blocks["u"]] = -(pb.phi.T @ (wq[:, None] * sources.body(pts))).T.ravel()
        G[spaces.q_blocks["theta"]] = -(pb.phi.T @ (wq * (r_vals - m_vals)))
    # wall velocity and pressure drive the stress test functions, wall temperature the heat-flux ones
    eff_un = bdata.u_n_w - eps * chi * bdata.p_w
    walls = np.array([bdata.u_t1_w, bdata.u_t2_w, eff_un, bdata.theta_w]).T
    coefs = (walls[:, :, None] * spaces.wall_table).sum(axis=1)  # per face, sigma's 5 rows and s's 3
    F[: 8 * sb.n] = 0.0 - (coefs[:, :, None] * sb.face_integrals[:, None, :]).sum(axis=0).ravel()
    raw_p = np.subtract.reduce(np.concatenate([raw_p[None], eff_un[:, None] * pb.face_integrals]))
    F[spaces.v_blocks["p"]] = spaces.restrict_p(raw_p)
    return F, G


def assemble_system(
    spaces: DiscreteSpaces,
    params: ModelParams,
    sources: VolumeSources | None = None,
    bdata: BoundaryData | None = None,
) -> MixedSystem:
    """Assemble the loads of the mixed problem on its shared operator.

    The part blocks of B and the Cholesky factors of M_V and M_Q (a LinAlgError if
    a block is not positive definite) are made once per spaces, and the blocks of A
    once per (spaces, params), from the 1D factors, and kept by the spaces, so every
    system on them shares them; the dense matrices are built only when read (MixedSystem).
    """
    F, G = assemble_load(spaces, params, sources, bdata)
    return MixedSystem(F=F, G=G, params=params, spaces=spaces, operator=_shared_operator(spaces, params))


# -- closures and wall-relation residuals ------------------------------------


def compute_closures(sigma, s, spaces, params, face: int | None = None):
    """Highest-order moments from the regularized closure relations.

    Evaluates m = -2 Kn Stf D sigma, R = -(24/5) Kn stf D s and
    Delta = -12 Kn div s at the volume quadrature points (or at the
    quadrature points of one face), differentiating the polynomial
    basis exactly.
    """
    U = np.concatenate([np.ravel(sigma), np.ravel(s), np.zeros(spaces.n_p)])
    dsig, ds = (spaces.evaluate(name, U, grad=True, face=face) for name in ("sigma", "s"))
    P3 = projection_matrix3("Stf", 3)
    nq = ds.shape[0]
    m3 = -2.0 * params.kn * (dsig.reshape(nq, 27) @ P3.T).reshape(nq, 3, 3, 3)
    P2 = projection_matrix2("stf", 3)
    R2 = -(24.0 / 5.0) * params.kn * (ds.reshape(nq, 9) @ P2.T).reshape(nq, 3, 3)
    delta = -12.0 * params.kn * np.einsum("qii->q", ds)
    return m3, R2, delta


def bc_residuals(U, P, spaces, params, bdata: BoundaryData | None = None):
    """L2 boundary norms of the seven Onsager wall relations.

    Each face takes every field into its frame by the matrix F with rows
    (n, t1, t2), so index 0 is the normal and 1, 2 the tangents. The
    tangential stress and tangential R relations aggregate both tangent
    directions into one norm each. u and theta traces come from the
    discrete polynomial representatives (diagnostic only).
    """
    bdata = bdata or BoundaryData()
    chi, eps = params.chi_tilde, params.epsilon_w
    sig_c, s_c, _ = spaces.split_V(np.asarray(U))
    sq = np.zeros(7)
    for f, fd in enumerate(spaces.faces):
        F = np.array([fd.frame.n, fd.frame.t1, fd.frame.t2])
        sig, s, p, u, th = (spaces.evaluate(name, U, P, face=f) for name in ("sigma", "s", "p", "u", "theta"))
        m3, R2, delta = compute_closures(sig_c, s_c, spaces, params, face=f)
        sig, R, s, u = F @ sig @ F.T, F @ R2 @ F.T, s @ F.T, u @ F.T
        m = np.einsum("qijk,ai,bj,ck->qabc", m3, F, F, F)
        du = u[:, 1:] - [bdata.u_t1_w[f], bdata.u_t2_w[f]]
        dth, snn, Rnn = th - bdata.theta_w[f], sig[:, 0, 0], R[:, 0, 0]
        res = (
            (u[:, 0] - bdata.u_n_w[f]) - eps * chi * ((p - bdata.p_w[f]) + snn),
            sig[:, 0, 1:] - chi * (du + 0.2 * s[:, 1:] + m[:, 0, 0, 1:]),
            R[:, 0, 1:] - chi * (-du + 2.2 * s[:, 1:] - m[:, 0, 0, 1:]),
            s[:, 0] - chi * (2.0 * dth + 0.5 * snn + 0.4 * Rnn + (2.0 / 15.0) * delta),
            m[:, 0, 0, 0] - chi * (-0.4 * dth + 1.4 * snn - 0.08 * Rnn - (2.0 / 75.0) * delta),
            (0.5 * m[:, 0, 0, 0] + m[:, 0, 1, 1]) - chi * (0.5 * snn + sig[:, 1, 1]),
            m[:, 0, 1, 2] - chi * sig[:, 1, 2],
        )
        sq += [np.sum(fd.weights * (r**2).T) for r in res]
    keys = [
        "normal_velocity",
        "tangential_stress",
        "tangential_R",
        "normal_heat_flux",
        "m_nnn",
        "m_nnn_t1t1",
        "m_nt1t2",
    ]
    return {k: float(np.sqrt(v)) for k, v in zip(keys, sq)}
