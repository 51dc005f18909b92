"""Tensor-product C0 polynomial spaces and quadrature on the unit box.

The 1D basis consists of the nodal hat functions of the uniform partition
plus per-cell integrated-Legendre bubbles, so inter-cell continuity holds
by construction and the global dimension per direction is k*N + 1. The
tensor-product bases use their parity combinations, each even or odd under
x -> 1 - x, so every coefficient has a sign under each of the cube's three
mirror reflections. Gauss quadrature uses N+2 points per direction per
cell by default, exact up to degree 2N+3, which covers every integrand
assembled here with margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import Legendre, leggauss

from .tensors import Frame, stf_basis

FACE_FRAMES = {
    (0, 0): ((-1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
    (0, 1): ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    (1, 0): ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    (1, 1): ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    (2, 0): ((0.0, 0.0, -1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
    (2, 1): ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
}


def _reference_functions(degree: int) -> list[Legendre]:
    """Hat pair plus bubbles on the reference cell [0, 1]."""
    funcs = [
        Legendre([0.5, -0.5], domain=[0, 1]),  # 1 - t
        Legendre([0.5, 0.5], domain=[0, 1]),  # t
    ]
    for m in range(2, degree + 1):
        coef = np.zeros(m + 1)
        coef[m] = 1.0
        coef[m - 2] = -1.0
        funcs.append(Legendre(coef, domain=[0, 1]))
    return funcs


class Basis1D:
    """C0 piecewise-polynomial basis of degree N on k uniform cells of [0, 1]."""

    def __init__(self, degree: int, subdivisions: int, n_quad: int | None = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if subdivisions < 1:
            raise ValueError("subdivisions must be >= 1")
        self.degree = degree
        self.subdivisions = subdivisions
        self.n = subdivisions * degree + 1
        self.n_quad_cell = n_quad if n_quad is not None else degree + 2

        k, N = subdivisions, degree
        self._ref = _reference_functions(N)

        # global layout: nodes 0..k first, then (N-1) bubbles per cell
        self.loc2glob = np.zeros((k, N + 1), dtype=int)
        for c in range(k):
            self.loc2glob[c, 0] = c
            self.loc2glob[c, 1] = c + 1
            for m in range(2, N + 1):
                self.loc2glob[c, m] = (k + 1) + c * (N - 1) + (m - 2)

        ref_x, ref_w = leggauss(self.n_quad_cell)
        ref_x = 0.5 * (ref_x + 1.0)  # to [0, 1]
        ref_w = 0.5 * ref_w
        h = 1.0 / k
        self.nodes = np.concatenate([(c + ref_x) * h for c in range(k)])
        self.weights = np.tile(ref_w * h, k)
        cells, t = np.repeat(np.arange(k), self.n_quad_cell), np.tile(ref_x, k)
        self.values, self.d1 = self._tabulate(cells, t, 0), self._tabulate(cells, t, 1)
        # endpoint traces (only the outer hat functions are nonzero)
        ends, t = np.array([0, k - 1]), np.array([0.0, 1.0])
        self.at0, self.at1 = self._tabulate(ends, t, 0)
        self.d1_at0, self.d1_at1 = self._tabulate(ends, t, 1)

    def _tabulate(self, cells: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
        """All basis functions (or their derivative of the given order) at the local
        coordinate t[i] in [0, 1] of cell cells[i], shaped (t.size, n)."""
        out = np.zeros((t.size, self.n))
        ref = [f.deriv(order) for f in self._ref]
        scale = float(self.subdivisions) ** order
        for c in np.unique(cells):
            mask = cells == c
            for loc, g in enumerate(self.loc2glob[c]):
                out[mask, g] += ref[loc](t[mask]) * scale
        return out

    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """(pi, sign) of the reflection x -> 1 - x: phi_j(1 - x) = sign[j] phi_pi[j](x).

        Node j goes to node k - j. The degree-m bubble of cell c goes to the
        same bubble of cell k - 1 - c times (-1)^m, the parity of P_m - P_{m-2}.
        """
        k, N = self.subdivisions, self.degree
        pi, sign = np.arange(self.n), np.ones(self.n)
        pi[: k + 1] = np.arange(k, -1, -1)
        for m in range(2, N + 1):
            pi[self.loc2glob[:, m]] = self.loc2glob[::-1, m]
            sign[self.loc2glob[:, m]] = (-1.0) ** m
        return pi, sign

    def parity_basis(self) -> tuple[np.ndarray, int]:
        """(T1, n_even): an orthogonal T1 whose first n_even columns are even under
        x -> 1 - x and the rest odd. It pairs each function with its mirror image
        as (e_j +- sign[j] e_pi(j)) / sqrt(2); a function that is its own image stays."""
        pi, sign = self.mirror()
        cols = {1.0: [], -1.0: []}
        for j in np.flatnonzero(pi >= np.arange(self.n)):
            if pi[j] == j:
                cols[sign[j]].append(np.eye(self.n)[j])
                continue
            for p in (1.0, -1.0):
                col = np.zeros(self.n)
                col[j], col[pi[j]] = np.sqrt(0.5), p * sign[j] * np.sqrt(0.5)
                cols[p].append(col)
        return np.column_stack(cols[1.0] + cols[-1.0]), len(cols[1.0])

    def evaluate(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        """Tabulate all basis functions (or a derivative) at arbitrary points."""
        x = np.asarray(x, dtype=float)
        k = self.subdivisions
        cells = np.clip((x * k).astype(int), 0, k - 1)
        return self._tabulate(cells, x * k - cells, order)


class FaceData:
    """Quadrature and basis traces on one boundary face of the cube; phi and dphi are
    tabulated on first use."""

    def __init__(self, axis: int, side: int, frame: Frame, basis: ScalarBasis):
        self.axis, self.side, self.frame, self._b1, self._T1 = axis, side, frame, basis.b1, basis.T1
        b = basis.b1
        pts = [np.array([float(side)]) if a == axis else b.nodes for a in range(3)]
        self.points = np.stack([g.ravel() for g in np.meshgrid(*pts, indexing="ij")], axis=-1)
        self.weights = _kron_all([np.ones((1, 1)) if a == axis else b.weights[None, :] for a in range(3)]).ravel()

    def _along(self, a: int, ax: int | None = None) -> np.ndarray:
        """The factor along axis a of the tabulation of the derivative along ax (None: the values)."""
        b, T1, side = self._b1, self._T1, self.side
        if a == self.axis:
            return (((b.d1_at1 if side else b.d1_at0) if a == ax else (b.at1 if side else b.at0)) @ T1)[None, :]
        return (b.d1 if a == ax else b.values) @ T1

    @cached_property
    def phi(self) -> np.ndarray:
        return _kron_all([self._along(a) for a in range(3)])

    @cached_property
    def dphi(self) -> np.ndarray:
        return np.stack([_kron_all([self._along(a, ax) for a in range(3)]) for ax in range(3)])


def _kron_all(mats: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of 2D arrays, left to right (np.kron's values, without its overhead)."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(out.shape[0] * m.shape[0], -1)
    return out


class ScalarBasis:
    """Tensor-product scalar basis on [0, 1]^dim.

    Its 1D factors are the parity functions b1.values @ T1 of the nodal
    basis b1, (T1, n_even) = b1.parity_basis(): the first n_even even under
    x -> 1 - x, the rest odd. Every coefficient vector over this basis is in
    these coordinates. Its pair matrices and integrals are Kronecker
    products of the 1D parity grams in `factors`, from which the sector
    assembler builds them.
    The volume and face tabulations phi and dphi are built on first use.
    """

    def __init__(self, dim: int, degree: int, subdivisions: int, n_quad: int | None = None):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim
        self.degree = degree
        self.subdivisions = subdivisions
        self.b1 = Basis1D(degree, subdivisions, n_quad)
        self.n = self.b1.n**dim
        self.T1, self.n_even = self.b1.parity_basis()
        self.parity = (slice(0, self.n_even), slice(self.n_even, self.b1.n))  # even, odd 1D indices
        self.weights = _kron_all([self.b1.weights[None, :]] * dim).ravel()
        grids = np.meshgrid(*([self.b1.nodes] * dim), indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=-1)
        self._cache: dict = {}
        self.faces: list[FaceData] = []
        if dim == 3:
            for (axis, side), (n, t1, t2) in FACE_FRAMES.items():
                frame = Frame(n=np.array(n), t1=np.array(t1), t2=np.array(t2))
                self.faces.append(FaceData(axis, side, frame, self))

    @cached_property
    def phi(self) -> np.ndarray:
        return _kron_all([self.b1.values @ self.T1] * self.dim)

    @cached_property
    def dphi(self) -> np.ndarray:
        F, D = self.b1.values @ self.T1, self.b1.d1 @ self.T1
        return np.stack([_kron_all([D if a == ax else F for a in range(self.dim)]) for ax in range(self.dim)])

    def sectors(self, mask: int) -> np.ndarray:
        """Sector 0..2^dim - 1 of each basis function as the coefficient of one
        field component that the mirror of axis a flips where bit a of mask is
        set, shaped (n1,) * dim: bit a is set when the product is odd under that mirror."""
        odd = np.arange(self.b1.n) >= self.n_even
        return sum(np.ix_(*[(odd ^ bool(mask >> a & 1)).astype(int) << a for a in range(self.dim)]))

    def factors(self, trial: ScalarBasis | None = None) -> dict:
        """1D parity grams of this basis (rows) against trial (columns; default: this basis).

        m = int phi psi, k = int phi' psi', d = int phi psi', dt = int phi' psi,
        and the trace products phi(1) psi(1)^T = P + Q, phi(0) psi(0)^T = P - Q.
        m, k and P keep parity, d, dt and Q swap it; their other entries,
        zero in exact arithmetic, are set to zero; `int` holds the integrals of
        the rows. Each gram is a nodal quadrature sum taken to parity
        coordinates; trial shares the quadrature points.
        """
        trial = self if trial is None else trial
        key = ("1d", trial.degree, trial.subdivisions, trial.b1.n_quad_cell)  # not id(trial): ids are reused
        if key not in self._cache:
            X, Y, TX, TY = self.b1, trial.b1, self.T1, trial.T1
            same = key[1:] == (self.degree, self.subdivisions, X.n_quad_cell)
            odd = np.arange(X.n) >= self.n_even
            keep = odd[:, None] == (np.arange(Y.n) >= trial.n_even)[None, :]

            def gram(u, v, mask):
                g = TX.T @ (u.T @ (X.weights[:, None] * v)) @ TY * mask
                return 0.5 * (g + g.T) if same and u is v else g

            trace = np.outer(X.at1 @ TX, Y.at1 @ TY)
            self._cache[key] = {
                "m": gram(X.values, Y.values, keep),
                "k": gram(X.d1, Y.d1, keep),
                "d": gram(X.values, Y.d1, ~keep),
                "dt": gram(X.d1, Y.values, ~keep),
                "P": trace * keep,
                "Q": trace * ~keep,
                "int": (X.values.T @ X.weights) @ TX * ~odd,
            }
        return self._cache[key]

    def integrals(self) -> np.ndarray:
        """Vector of integrals of each basis function."""
        return _kron_all([self.factors()["int"][None, :]] * self.dim).ravel()

    def face_integrals(self, f: int) -> np.ndarray:
        """Vector of integrals of each basis function over face f."""
        if ("fi", f) not in self._cache:
            fd, integrals = self.faces[f], self.factors()["int"]
            trace = (self.b1.at1 if fd.side else self.b1.at0) @ self.T1
            self._cache["fi", f] = _kron_all([(trace if a == fd.axis else integrals)[None, :] for a in range(3)]).ravel()
        return self._cache["fi", f]

    def project(self, fn) -> np.ndarray:
        """L2 projection of a callable fn(points) onto the basis (exact on members).

        Solves the weighted least-squares problem min |sqrt(W)(phi c - f)| by
        Householder QR of sqrt(W) phi. The normal equations (mass c = phi^T W f)
        would square its condition number (about 1.9e4 against 139 at N = 2),
        and callers that differentiate the projected field magnify that
        coefficient error past 1e-12.
        """
        if "qr" not in self._cache:
            self._cache["qr"] = sla.qr(np.sqrt(self.weights)[:, None] * self.phi, mode="economic")
        Q, R = self._cache["qr"]
        f = np.sqrt(self.weights) * np.asarray(fn(self.points), dtype=float)
        return sla.solve_triangular(R, Q.T @ f)


def dmat_names(a: int, b: int, dim: int = 3) -> tuple:
    """1D factor names per axis of the integral of (d_a phi)(d_b psi)."""
    if a == b:
        return tuple("k" if c == a else "m" for c in range(dim))
    return tuple("dt" if c == a else "d" if c == b else "m" for c in range(dim))


class BubbleBasis:
    """Global polynomials on [0, 1]^dim vanishing on the whole boundary.

    One macro cell: per direction the functions x(1-x) P_j(2x-1). Used for
    the auxiliary Dirichlet solves behind the divergence right-inverse.
    """

    def __init__(self, dim: int, degree: int, nodes1d: np.ndarray, weights1d: np.ndarray):
        if degree < 2:
            raise ValueError("bubble space needs degree >= 2")
        self.dim = dim
        self.degree = degree
        n1 = degree - 1
        self.n = n1**dim
        xpoly = Legendre([0.5, 0.5], domain=[0, 1])
        onemx = Legendre([0.5, -0.5], domain=[0, 1])
        funcs = [xpoly * onemx * Legendre.basis(j, domain=[0, 1]) for j in range(n1)]
        F = np.column_stack([f(nodes1d) for f in funcs])
        D = np.column_stack([f.deriv()(nodes1d) for f in funcs])
        S = np.column_stack([f.deriv(2)(nodes1d) for f in funcs])
        self.weights = _kron_all([weights1d[None, :]] * dim).ravel()
        self.phi = _kron_all([F] * dim)
        self.dphi = np.stack(
            [_kron_all([D if a == ax else F for a in range(dim)]) for ax in range(dim)]
        )
        idx = range(dim)
        self.d2phi = {}
        for a in idx:
            for b in idx:
                if a > b:
                    continue
                facs = []
                for c in range(dim):
                    if a == b:
                        facs.append(S if c == a else F)
                    else:
                        facs.append(D if c in (a, b) else F)
                self.d2phi[(a, b)] = _kron_all(facs)

    def h1_gram(self) -> np.ndarray:
        w = self.weights[:, None]
        g = self.phi.T @ (w * self.phi)
        for a in range(self.dim):
            g = g + self.dphi[a].T @ (w * self.dphi[a])
        return g


AXIS_SWAPS = ((0, 1), (0, 2), (1, 2))  # the transpositions of the cube's axes


def _swap_bits(s: int, a: int, b: int) -> int:
    """Sector s with bits a and b exchanged: its image under the swap of axes a and b."""
    return s ^ (((s >> a ^ s >> b) & 1) * (1 << a | 1 << b))


def _label_ranks(lab: np.ndarray) -> np.ndarray:
    """Per entry of lab, the number of earlier entries with the same label."""
    order = np.argsort(lab, kind="stable")
    rank = np.empty(lab.size, dtype=int)
    rank[order] = np.arange(lab.size) - np.searchsorted(lab[order], lab[order])
    return rank


@dataclass(frozen=True, eq=False)
class Gather:
    """The linear map x -> sum_t weight[t] * x[index[t]] along x's first axis.

    Each output mixes index.shape[0] inputs; a weight of 0 pads an output
    that needs fewer. No dense matrix of the map is formed.
    """

    index: np.ndarray
    weight: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("tn,tn...->n...", self.weight, x[self.index])


class Sectors:
    """V, Q or one Korn field in sector coordinates: by orbit of mirror sectors, by sector, by subproblem.

    It is built from the field blocks, which lie one after the other in the
    coordinates, each given as (scalar basis, mask, R, labels, subproblem).
    Bit a of mask is set where the mirror of axis a flips the component;
    labels hold the sector 0..2^dim - 1 of each of the block's coordinates
    under the box's mirrors (ScalarBasis.sectors, shaped (n1,) * dim, or
    `p_sectors` for the pressure); R maps the zero-mean pressure's sector-0
    coordinates to the fully even functions, the only sector where Cp is
    not the identity (else None); subproblem is 0 (momentum) or 1 (energy).

    `swaps` maps each transposition (a, b) of the cube's axes (AXIS_SWAPS)
    to the orthogonal matrix W it induces on the field blocks: block c of
    the swapped field is sum_r W[c, r] times block r with the axes a and b
    of its coefficient grid exchanged. The swap maps sector s to s with
    bits a and b exchanged, so the sectors with as many odd axes form one
    orbit. `orbits` lists them, each led by its representative, the sector
    whose odd axes come first: (0,), (1, 2, 4), (3, 5, 6) and (7,) in 3D.
    Without swaps each sector is an orbit of its own, in order.

    The sector coordinates list the coordinates orbit by orbit, sector by
    sector inside an orbit and momentum before energy inside a sector:
    `order` maps them to the coordinates they are made of, and `sectors`
    holds the slice of each sector s at index s. They are carried: a
    sector s holds its coordinates carried to its representative r's by
    the swap that takes r to s, so it lists them in r's order, and a
    matrix that commutes with the swaps has r's block on every sector of
    the orbit. So the m sectors of an orbit are the m rows of one array
    (`split`), and `parts` holds the slice of each subproblem inside any
    sector of orbit o, at index 2 o + subproblem. `to_sectors` and
    `from_sectors` are the carry and its inverse, each one Gather over
    whole vectors: an exact index gather read off the blocks' label grids,
    mixed by W; no map touches sector 0, so R never enters. Without swaps
    the carry is the plain permutation `order`. `boxes` gives per field
    block and sector the start, in sector coordinates, and the size of the
    block's coordinates in the sector, where they are contiguous. The
    constructor raises if a sector's part sizes differ from its
    representative's.
    """

    def __init__(self, fields: list, swaps: dict | None = None):
        self.fields, self.swaps = fields, swaps or {}
        dim = fields[0][0].dim
        count = 2**dim
        if self.swaps:
            self.orbits = [tuple(s for s in range(count) if bin(s).count("1") == k) for k in range(dim + 1)]
        else:
            self.orbits = [(s,) for s in range(count)]
        place = np.argsort(np.concatenate(self.orbits))  # each sector's place in the listing
        slots = np.concatenate([2 * place[lab.ravel()] + sub for *_, lab, sub in fields])
        self.order = np.argsort(slots, kind="stable")
        bounds = np.searchsorted(slots[self.order], np.arange(2 * count + 1))
        self.sectors = [slice(bounds[2 * j], bounds[2 * j + 2]) for j in place]
        sizes = np.diff(bounds).reshape(count, 2)[place].tolist()  # by sector
        self.parts = []
        for r, *others in self.orbits:
            momentum, energy = sizes[r]
            self.parts += [slice(0, momentum), slice(momentum, momentum + energy)]
            for s in others:
                if sizes[s] != sizes[r]:
                    raise ValueError(f"sector {s} has part sizes {sizes[s]}, its representative {r} {sizes[r]}")
        at = np.empty(slots.size, dtype=int)
        at[self.order] = np.arange(slots.size)  # the sector coordinate of each coordinate
        self.boxes, start = [], 0
        for *_, lab, _ in fields:
            present, first = np.unique(lab, return_index=True)
            offset = np.zeros(count, dtype=int)
            offset[present] = at[start + first]
            self.boxes.append(list(zip(offset.tolist(), np.bincount(lab.ravel(), minlength=count).tolist())))
            start += lab.size
        self._down, self._up = self._carry(at)

    def _carry(self, at: np.ndarray) -> tuple[Gather, Gather]:
        """(down, up): to_sectors and from_sectors, from each swap's map of the whole sector coordinates.

        Each block's label grid (its labels, but for the zero-mean pressure's)
        gives every coordinate a grid point: the k-th coordinate with a label
        is the k-th point of the grid with that label (outside the zero-mean
        pressure's sector 0, which no map reads, this is exact). The swap
        reads, for a coordinate of block c, the grid point with the axes
        exchanged in each block r that W mixes into c. down reads sector s's
        slice of the carried coordinates through the swap from r's slice
        (its coordinates lie in s's), up reads s's coordinates from r's.
        """
        swapped = {}
        if self.swaps:
            grids = [lab if lab.ndim == basis.dim else basis.sectors(mask) for basis, mask, _, lab, _ in self.fields]
            where = np.full((len(grids), max(g.size for g in grids)), -1)  # the coordinate of each block's grid point
            block, point, start = [], [], 0
            for c, ((*_, lab, _), grid) in enumerate(zip(self.fields, grids)):
                lab, by_label = lab.ravel(), np.argsort(grid.ravel(), kind="stable")
                points = by_label[np.searchsorted(grid.ravel()[by_label], lab) + _label_ranks(lab)]
                where[c, points] = start + np.arange(lab.size)
                block.append(np.full(lab.size, c))
                point.append(points)
                start += lab.size
            block, point = np.concatenate(block)[self.order], np.concatenate(point)[self.order]
            for axes, W in self.swaps.items():
                moved = np.zeros(where.shape, dtype=int)
                for c, grid in enumerate(grids):
                    moved[c, : grid.size] = np.arange(grid.size).reshape(grid.shape).swapaxes(*axes).ravel()
                terms = int(np.count_nonzero(W, axis=1).max())
                source, weight = np.zeros((terms, len(W)), dtype=int), np.zeros((terms, len(W)))
                for c, row in enumerate(W):
                    r = np.flatnonzero(row)
                    source[:, c] = r[0]  # a padding term reads the first source, with weight 0
                    source[: r.size, c], weight[: r.size, c] = r, row[r]
                coords = where[source[:, block], moved[block, point]]
                swapped[axes] = (np.where(coords < 0, -1, at[coords]), weight[:, block])
        terms = max([index.shape[0] for index, _ in swapped.values()], default=1)
        down, up = (Gather(np.zeros((terms, at.size), dtype=int), np.zeros((terms, at.size))) for _ in range(2))
        down.index[0], up.index[0], down.weight[0], up.weight[0] = self.order, at, 1.0, 1.0
        for r, s in ((orbit[0], s) for orbit in self.orbits for s in orbit[1:]):
            index, weight = swapped[next(ab for ab in self.swaps if _swap_bits(r, *ab) == s)]
            ss, rs, t = self.sectors[s], self.sectors[r], index.shape[0]
            for src, dst in ((r, s), (s, r)):
                i = index[:, self.sectors[dst]]
                if np.any(i < self.sectors[src].start) or np.any(i >= self.sectors[src].stop):
                    raise ValueError(f"the axis swap does not map sector {src} onto sector {dst}")
            down.index[:t, ss], down.weight[:t, ss] = self.order[index[:, rs]], weight[:, rs]
            rows = self.order[ss]
            up.index[:t, rows], up.weight[:t, rows] = index[:, ss] - rs.start + ss.start, weight[:, ss]
        return down, up

    def to_sectors(self, x: np.ndarray) -> np.ndarray:
        """The carried sector coordinates of a vector, or of each column of a matrix."""
        return self._down(x)

    def from_sectors(self, y: np.ndarray) -> np.ndarray:
        """The vector (or matrix of columns) with carried sector coordinates y."""
        return self._up(y)

    def split(self, y: np.ndarray) -> list[np.ndarray]:
        """Per orbit, its m sectors' slices of the carried sector coordinates y as the m rows
        of one array (views; for a matrix y, m stacked matrices): a matrix that commutes with
        the swaps acts on each row alike."""
        shape = y.shape[1:]
        return [y[self.sectors[o[0]].start : self.sectors[o[-1]].stop].reshape((len(o), -1, *shape)) for o in self.orbits]


def mirror_masks(basis: np.ndarray) -> list[int]:
    """Per orthonormal basis tensor X of shape (d,) * r, the bit mask of the axes whose mirror
    maps X to -X (it flips the sign of X's entries once per index equal to the axis). A basis
    tensor not mapped to plus or minus itself would show as off-sector entries when assembled."""
    d = basis.shape[1]
    signs = [reduce(np.multiply.outer, [1.0 - 2.0 * np.eye(d)[a]] * (basis.ndim - 1)) for a in range(d)]
    return [sum(int(np.sum(s * X * X) < 0) << a for a, s in enumerate(signs)) for X in basis]


def _zero_mean_basis(integrals: np.ndarray, sectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Cp, sectors of its columns): an orthonormal basis of the coefficients
    orthogonal to the integrals, each column inside one sector, sorted by sector.

    Odd functions integrate to zero, so the integrals lie in the fully even
    class (sector 0). A Householder reflection of that class maps its first
    coordinate onto them, and the rest of the class spans their orthogonal
    complement there. Its sign never cancels, also where the integrals are
    a multiple of that coordinate, such as a class of one function.
    """
    even = np.flatnonzero(sectors == 0)
    x = integrals[even] / np.linalg.norm(integrals[even])
    u = x.copy()
    u[0] += 1.0 if x[0] >= 0 else -1.0
    u /= np.linalg.norm(u)
    C = np.eye(sectors.size)
    C[np.ix_(even, even)] -= 2.0 * np.outer(u, u)  # column even[0] now spans the integrals
    keep = np.delete(np.arange(sectors.size), even[0])
    order = keep[np.argsort(sectors[keep], kind="stable")]
    return C[:, order], sectors[order]


PAIRINGS = ("equal", "enriched")


class DiscreteSpaces:
    """Discrete product spaces for the mixed system on the unit cube.

    V holds (sigma, s, p): 5 stf components, 3 vector components and one
    scalar; Q holds (u, theta). sigma and s are expanded in the scalar
    basis `scalar`, p, u and theta in `scalar_pq`. The stress components
    live in the orthonormal stf coordinate basis, so the symmetry and trace
    constraints hold exactly. pressure_mode 'zero_mean' removes the global
    constant pressure mode: the pressure coordinates are p = Cp q, with Cp
    an orthonormal basis of the zero-mean coefficients whose columns each
    lie in one mirror sector, sorted by sector, and `p_sectors` holds their
    sectors (in 'full' mode Cp is the identity and `p_sectors` the scalar
    sectors, shaped (n1, n1, n1)).

    pairing 'equal' uses one degree-N basis for every field (`scalar_pq` is
    `scalar`); its constraint has a 7-dimensional cokernel. pairing
    'enriched' puts sigma and s at degree N+1 and keeps p, u and theta at
    degree N, both tabulated on the N+3 Gauss points per direction and
    cell of the degree-(N+1) basis; its constraint maps onto Q. The Korn
    and right-inverse helpers read `scalar` alone, at its own degree.
    `sectors` holds V and Q as Sectors, the one layout of their mirror
    sectors and subproblems, built on first use.

    The spaces own what is assembled on them and keep it as long as they
    live: `structure`, the assembly.SaddleStructure (B, M_V, M_Q), and in
    `operators`, per ModelParams used on them, its assembly.SaddleOperator
    (A), each built on first use (assembly._shared_operator).
    """

    def __init__(self, degree: int, subdivisions: int, pressure_mode: str, pairing: str = "equal"):
        if pressure_mode not in ("zero_mean", "full"):
            raise ValueError(f"unknown pressure_mode {pressure_mode!r}")
        if pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {pairing!r}")
        self.degree = degree
        self.subdivisions = subdivisions
        self.pressure_mode = pressure_mode
        if pairing == "equal":
            self.scalar = ScalarBasis(3, degree, subdivisions)
            self.scalar_pq = self.scalar
        else:
            self.scalar = ScalarBasis(3, degree + 1, subdivisions)
            self.scalar_pq = ScalarBasis(3, degree, subdivisions, n_quad=degree + 3)
        self.E = stf_basis(2, 3)  # (5, 3, 3) orthonormal stress component basis

        n, m = self.scalar.n, self.scalar_pq.n
        scalar_sectors = self.scalar_pq.sectors(0)
        if pressure_mode == "zero_mean":
            self.Cp, self.p_sectors = _zero_mean_basis(self.scalar_pq.integrals(), scalar_sectors.ravel())
        else:
            self.Cp, self.p_sectors = np.eye(m), scalar_sectors
        self.n_scalar = n
        self.n_p = self.Cp.shape[1]
        self.n_V = 8 * n + self.n_p
        self.n_Q = 4 * m
        self.v_blocks = {
            "sigma": slice(0, 5 * n),
            "s": slice(5 * n, 8 * n),
            "p": slice(8 * n, 8 * n + self.n_p),
        }
        self.q_blocks = {"u": slice(0, 3 * m), "theta": slice(3 * m, 4 * m)}
        self.structure = None
        self.operators = {}
        self.korn = {}  # per OperatorSpec, the sector grams of its Korn pencil (korn._korn_grams)

    @cached_property
    def stress_face_weights(self) -> list[dict]:
        """Per face, the weights w[key] (5-vectors) with sigma_key = w[key] . sigma
        for the frame entries nn, nt1, nt2, t1t1, t1t2 and t2t2."""
        out = []
        for fd in self.faces:
            vec = {"n": fd.frame.n, "t1": fd.frame.t1, "t2": fd.frame.t2}
            keys = (("n", "n"), ("n", "t1"), ("n", "t2"), ("t1", "t1"), ("t1", "t2"), ("t2", "t2"))
            out.append({i + j: np.einsum("aij,i,j->a", self.E, vec[i], vec[j]) for i, j in keys})
        return out

    @cached_property
    def sectors(self) -> tuple[Sectors, Sectors]:
        """(V, Q) as Sectors: the momentum subproblem holds sigma's components (in the
        basis E) and p in V and u in Q, the energy subproblem s in V and theta in Q.

        An axis swap P maps sigma to P sigma P^T, whose components mix by
        <P E_b P^T, E_c> (a signed permutation but for a 2 x 2 rotation of
        the two diagonal components), permutes the components of s and u,
        and leaves p and theta scalar."""
        sb, pb, axes = self.scalar, self.scalar_pq, mirror_masks(np.eye(3))
        even = np.flatnonzero(pb.sectors(0).ravel() == 0)
        R = self.Cp[even][:, self.p_sectors == 0] if self.pressure_mode == "zero_mean" else None
        V = [(sb, mask, None, sb.sectors(mask), 0) for mask in mirror_masks(self.E)]
        V += [(sb, mask, None, sb.sectors(mask), 1) for mask in axes] + [(pb, 0, R, self.p_sectors, 0)]
        Q = [(pb, mask, None, pb.sectors(mask), 0) for mask in axes] + [(pb, 0, None, pb.sectors(0), 1)]
        swaps_V, swaps_Q = {}, {}
        for a, b in AXIS_SWAPS:
            P = np.eye(3)[[b if i == a else a if i == b else i for i in range(3)]]
            stress = np.einsum("ki,bij,lj,ckl->cb", P, self.E, P, self.E)
            swaps_V[a, b], swaps_Q[a, b] = np.eye(9), np.eye(4)
            swaps_V[a, b][:5, :5], swaps_V[a, b][5:8, 5:8], swaps_Q[a, b][:3, :3] = stress, P, P
        return Sectors(V, swaps_V), Sectors(Q, swaps_Q)

    @property
    def faces(self) -> list[FaceData]:
        return self.scalar.faces

    def split_V(self, U: np.ndarray):
        """Coefficient blocks (sigma (5, n), s (3, n), p scalar coefficients (m,)).

        n counts the functions of `scalar`, m those of `scalar_pq`.
        """
        n = self.n_scalar
        sig = U[self.v_blocks["sigma"]].reshape(5, n)
        s = U[self.v_blocks["s"]].reshape(3, n)
        p = self.Cp @ U[self.v_blocks["p"]]
        return sig, s, p

    def split_Q(self, P: np.ndarray):
        """Coefficient blocks (u (3, m), theta (m,)) over `scalar_pq`."""
        u = P[self.q_blocks["u"]].reshape(3, self.scalar_pq.n)
        theta = P[self.q_blocks["theta"]]
        return u, theta

    def evaluate(self, name: str, U=None, P=None, grad: bool = False, face: int | None = None) -> np.ndarray:
        """Field `name` of the solution (U, P) at the volume quadrature points, or at those of
        face `face`: sigma (q, 3, 3), s and u (q, 3), p and theta (q,). With grad, its
        gradient, the derivative index last. sigma, s and p read U only, u and theta P only.

        It reads phi, or dphi for grad, of the field's basis or of that basis's face, so it
        tabulates only those.
        """
        if name in self.v_blocks:
            coef = dict(zip(self.v_blocks, self.split_V(np.asarray(U))))[name]
        else:
            coef = dict(zip(self.q_blocks, self.split_Q(np.asarray(P))))[name]
        basis = self.scalar if name in ("sigma", "s") else self.scalar_pq
        tab = basis if face is None else basis.faces[face]
        vals = np.einsum("...I,kqI->q...k", coef, tab.dphi) if grad else np.einsum("...I,qI->q...", coef, tab.phi)
        return np.einsum("qa...,aij->qij...", vals, self.E) if name == "sigma" else vals


def build_spaces(
    degree: int, subdivisions: int, pressure_mode: str = "zero_mean", pairing: str = "equal"
) -> DiscreteSpaces:
    """Construct the discrete spaces; raises on invalid degree, subdivision or pairing."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    return DiscreteSpaces(degree, subdivisions, pressure_mode, pairing)
