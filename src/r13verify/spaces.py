"""Tensor-product C0 polynomial spaces and quadrature on the unit box.

The scalar basis per direction consists of the nodal hat functions of the
uniform partition plus per-cell integrated-Legendre bubbles, so inter-cell
continuity holds by construction and the global dimension per direction is
k*N + 1. Gauss quadrature uses N+2 points per direction per cell by
default, exact up to degree 2N+3, which covers every integrand assembled
here with margin.
"""

from __future__ import annotations

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
        self._ref_d1 = [f.deriv() for f in self._ref]

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
        nodes, weights = [], []
        nq = self.n_quad_cell
        self.values = np.zeros((k * nq, self.n))
        self.d1 = np.zeros((k * nq, self.n))
        for c in range(k):
            nodes.append((c + ref_x) * h)
            weights.append(ref_w * h)
            for loc, g in enumerate(self.loc2glob[c]):
                sl = slice(c * nq, (c + 1) * nq)
                self.values[sl, g] = self._ref[loc](ref_x)
                self.d1[sl, g] = self._ref_d1[loc](ref_x) * k
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)

        # endpoint traces (only the outer hat functions are nonzero)
        self.at0 = np.zeros(self.n)
        self.at1 = np.zeros(self.n)
        self.d1_at0 = np.zeros(self.n)
        self.d1_at1 = np.zeros(self.n)
        for loc, g in enumerate(self.loc2glob[0]):
            self.at0[g] += self._ref[loc](0.0)
            self.d1_at0[g] += self._ref_d1[loc](0.0) * k
        for loc, g in enumerate(self.loc2glob[k - 1]):
            self.at1[g] += self._ref[loc](1.0)
            self.d1_at1[g] += self._ref_d1[loc](1.0) * k

    def evaluate(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        """Tabulate all basis functions (or a derivative) at arbitrary points."""
        x = np.asarray(x, dtype=float)
        k = self.subdivisions
        out = np.zeros((x.size, self.n))
        cells = np.clip((x * k).astype(int), 0, k - 1)
        ref = [f.deriv(order) for f in self._ref]
        scale = float(k) ** order
        for c in range(k):
            mask = cells == c
            if not np.any(mask):
                continue
            t = x[mask] * k - c
            for loc, g in enumerate(self.loc2glob[c]):
                out[mask, g] += ref[loc](t) * scale
        return out


class FaceData:
    """Quadrature and basis traces on one boundary face of the cube."""

    def __init__(self, axis: int, side: int, frame: Frame, points, weights, phi, dphi):
        self.axis = axis
        self.side = side
        self.frame = frame
        self.points = points
        self.weights = weights
        self.phi = phi
        self.dphi = dphi


def _kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


class ScalarBasis:
    """Tensor-product scalar basis on [0, 1]^dim with volume and face tabulations."""

    def __init__(self, dim: int, degree: int, subdivisions: int, n_quad: int | None = None):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim
        self.degree = degree
        self.subdivisions = subdivisions
        self.b1 = Basis1D(degree, subdivisions, n_quad)
        self.n = self.b1.n**dim

        F, D = self.b1.values, self.b1.d1
        self.weights = _kron_all([self.b1.weights[None, :]] * dim).ravel()
        grids = np.meshgrid(*([self.b1.nodes] * dim), indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=-1)
        self.phi = _kron_all([F] * dim)
        self.dphi = np.stack(
            [_kron_all([D if a == ax else F for a in range(dim)]) for ax in range(dim)]
        )
        self._cache: dict = {}
        self.faces: list[FaceData] = []
        if dim == 3:
            self._build_faces()

    def _build_faces(self) -> None:
        b = self.b1
        F, D = b.values, b.d1
        for (axis, side), (n, t1, t2) in FACE_FRAMES.items():
            frame = Frame(n=np.array(n), t1=np.array(t1), t2=np.array(t2))
            trace = b.at1 if side == 1 else b.at0
            dtrace = b.d1_at1 if side == 1 else b.d1_at0
            vals, pts, wts = [], [], []
            for a in range(3):
                if a == axis:
                    vals.append(trace[None, :])
                    pts.append(np.array([float(side)]))
                    wts.append(np.array([1.0]))
                else:
                    vals.append(F)
                    pts.append(b.nodes)
                    wts.append(b.weights)
            phi = _kron_all(vals)
            dphi = []
            for ax in range(3):
                facs = []
                for a in range(3):
                    if a == axis:
                        facs.append((dtrace if ax == axis else trace)[None, :])
                    else:
                        facs.append(D if a == ax else F)
                dphi.append(_kron_all(facs))
            grids = np.meshgrid(*pts, indexing="ij")
            points = np.stack([g.ravel() for g in grids], axis=-1)
            weights = _kron_all([w[None, :] for w in wts]).ravel()
            self.faces.append(FaceData(axis, side, frame, points, weights, phi, np.stack(dphi)))

    # -- scalar pair matrices (cached) ------------------------------------

    def mass(self) -> np.ndarray:
        if "mass" not in self._cache:
            self._cache["mass"] = self.phi.T @ (self.weights[:, None] * self.phi)
        return self._cache["mass"]

    def dmat(self, a: int, b: int) -> np.ndarray:
        """Integral of (d_a phi_I)(d_b phi_J)."""
        key = ("d", a, b)
        if key not in self._cache:
            self._cache[key] = self.dphi[a].T @ (self.weights[:, None] * self.dphi[b])
        return self._cache[key]

    def vmat(self, b: int, trial: ScalarBasis | None = None) -> np.ndarray:
        """Integral of phi_I (d_b psi_J), psi from trial (default: this basis).

        A trial basis must be tabulated on the same quadrature points.
        """
        trial = self if trial is None else trial
        key = ("v", b) if trial is self else ("v", b, id(trial))
        if key not in self._cache:
            self._cache[key] = self.phi.T @ (self.weights[:, None] * trial.dphi[b])
        return self._cache[key]

    def h1(self) -> np.ndarray:
        if "h1" not in self._cache:
            self._cache["h1"] = self.mass() + sum(self.dmat(a, a) for a in range(self.dim))
        return self._cache["h1"]

    def integrals(self) -> np.ndarray:
        """Vector of integrals of each basis function."""
        return self.phi.T @ self.weights

    def face_mass(self, f: int, trial: ScalarBasis | None = None) -> np.ndarray:
        """Face integral of phi_I psi_J, psi from trial (default: this basis)."""
        trial = self if trial is None else trial
        key = ("fm", f) if trial is self else ("fm", f, id(trial))
        if key not in self._cache:
            fd = self.faces[f]
            self._cache[key] = fd.phi.T @ (fd.weights[:, None] * trial.faces[f].phi)
        return self._cache[key]

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


PAIRINGS = ("equal", "enriched")


class DiscreteSpaces:
    """Discrete product spaces for the mixed system on the unit cube.

    V holds (sigma, s, p): 5 stf components, 3 vector components and one
    scalar; Q holds (u, theta). sigma and s are expanded in the scalar
    basis `scalar`, p, u and theta in `scalar_pq`. The stress components
    live in the orthonormal stf coordinate basis, so the symmetry and trace
    constraints hold exactly. pressure_mode 'zero_mean' removes the global
    constant pressure mode through an orthonormal coefficient transform.

    pairing 'equal' uses one degree-N basis for every field (`scalar_pq` is
    `scalar`); its constraint has a 7-dimensional cokernel. pairing
    'enriched' puts sigma and s at degree N+1 and keeps p, u and theta at
    degree N, both tabulated on the N+3 Gauss points per direction and
    cell of the degree-(N+1) basis; its constraint maps onto Q. The Korn
    and right-inverse helpers read `scalar` and `degree` as one
    equal-degree basis.
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
        if pressure_mode == "zero_mean":
            w = self.scalar_pq.integrals()
            v = w / np.linalg.norm(w)
            u = v - np.eye(m)[0]
            u /= np.linalg.norm(u)
            H = np.eye(m) - 2.0 * np.outer(u, u)
            self.Cp = H[:, 1:]
        else:
            self.Cp = np.eye(m)
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


def build_spaces(
    degree: int, subdivisions: int, pressure_mode: str = "zero_mean", pairing: str = "equal"
) -> DiscreteSpaces:
    """Construct the discrete spaces; raises on invalid degree, subdivision or pairing."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    return DiscreteSpaces(degree, subdivisions, pressure_mode, pairing)
