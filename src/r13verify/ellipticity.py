"""Symbol maps of first-order operators and their ellipticity classification.

An operator acts as a projection of the gradient, P[field x nabla]. Its symbol at frequency xi
is the linear map X -> P[X otimes xi]. The operator is R-elliptic (C-elliptic) when the symbol
is injective for every nonzero real (complex) xi; the two notions differ exactly on the
isotropic cone xi . xi = 0, which the C verdict therefore always samples explicitly. Samples are
screened in row blocks by their Gram's least eigenvalue or one Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensors import (
    _range_orthobasis,
    projection_matrix2,
    projection_matrix3,
    stf_basis,
)

RANK2_CODOMAINS = ("sym", "skew", "dev", "stf", "identity")
RANK3_CODOMAINS = ("Sym", "Dev", "Stf")

SINGULAR_VALUE_THRESHOLD = 1e-8
GRAM_BLOCK = 1024  # rows screened at once; the row count picks BLAS's product kernel, so it sets Gram bits


@dataclass(frozen=True)
class OperatorSpec:
    """First-order constant-coefficient operator: projection applied to a gradient.

    domain: 'vectors', 'stf2' (symmetric trace-free 2-tensors) or 'full2'.
    codomain: projection kind; rank-2 kinds for vector fields, rank-3
    kinds (Sym/Dev/Stf) for tensor fields.
    """

    domain: str
    codomain: str
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if self.domain == "vectors":
            if self.codomain not in RANK2_CODOMAINS:
                raise ValueError(f"vector fields need a rank-2 codomain, got {self.codomain!r}")
        elif self.domain in ("stf2", "full2"):
            if self.codomain not in RANK3_CODOMAINS:
                raise ValueError(f"2-tensor fields need a rank-3 codomain, got {self.codomain!r}")
        else:
            raise ValueError(f"unknown domain {self.domain!r}")


@dataclass(frozen=True)
class SymbolMatrix:
    """Coordinate matrix of the symbol at one frequency xi."""

    xi: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class SamplingPlan:
    """Frequency sampling counts for the ellipticity check.

    Only the n_real >= 1 real directions enter the R verdict. The C verdict
    adds the complex and isotropic strata and the structured family
    (1, i cos phi, i sin phi, 0, ...), which is always sampled so the
    isotropic cone cannot be missed by chance.
    """

    n_real: int = 4096
    n_complex: int = 4096
    n_isotropic: int = 2048
    n_structured: int = 1024
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_real", 1), ("n_complex", 0), ("n_isotropic", 0), ("n_structured", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class EllipticityVerdict:
    elliptic: bool
    min_singular_value: float
    xi_min: np.ndarray
    n_samples: int
    witness: np.ndarray | None = None
    witness_residual: float | None = None


@dataclass(frozen=True)
class EllipticityCheck:
    """R and C verdicts of one sampled batch; the R verdict reads its real rows."""

    real: EllipticityVerdict
    complex: EllipticityVerdict

    @property
    def n_samples(self) -> int:
        """Number of sampled frequencies."""
        return self.complex.n_samples


@dataclass(frozen=True)
class Prefactors:
    """Dimension-dependent coefficients of the stf-gradient symbol analysis.

    c_stf is the rank-3 trace coefficient, c_symbol the coefficient in the
    symbol identity, c_core1 the full xi-contraction factor, c_case1 the
    factor on the anisotropic stratum and c_case2 the one on the isotropic
    stratum; c_case2 vanishes exactly at d = 2.
    """

    c_stf: Fraction
    c_symbol: Fraction
    c_core1: Fraction
    c_case1: Fraction
    c_case2: Fraction

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.c_stf, self.c_symbol, self.c_core1, self.c_case1, self.c_case2)


def general_d_prefactors(d: int) -> Prefactors:
    """Exact rational prefactor table for dimension d >= 2."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return Prefactors(
        c_stf=Fraction(1, d + 2),
        c_symbol=Fraction(2, 3 * (d + 2)),
        c_core1=Fraction(d, d + 2),
        c_case1=Fraction(2 * (d + 1), 3 * (d + 2)),
        c_case2=Fraction(d - 2, 3 * (d + 2)),
    )


def domain_basis(op: OperatorSpec) -> np.ndarray:
    """Orthonormal basis tensors of the operator's domain, shape (n, d[, d])."""
    d = op.dim
    if op.domain == "vectors":
        return np.eye(d)
    if op.domain == "stf2":
        return stf_basis(2, d)
    return np.eye(d * d).reshape(d * d, d, d)


def projector(op: OperatorSpec) -> np.ndarray:
    """Read-only matrix of the operator's projection on flattened gradient tensors."""
    if op.domain == "vectors":
        return projection_matrix2(op.codomain, op.dim)
    return projection_matrix3(op.codomain, op.dim)


def apply_symbol(op: OperatorSpec, X: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Symbol applied to a domain tensor: the projected dyad P[X otimes xi]."""
    xi = np.asarray(xi)
    if np.linalg.norm(xi) == 0:
        raise ValueError("zero frequency")
    X = np.asarray(X)
    dyad = np.multiply.outer(X, xi)
    P = projector(op)
    out = P.astype(dyad.dtype) @ dyad.ravel()
    return out.reshape(dyad.shape)


def _projected_dyads(op: OperatorSpec) -> np.ndarray:
    """C[a, k] = P[X_a otimes e_k] flattened, over the domain basis X_a, shape (n, d, m)."""
    d = op.dim
    dom = domain_basis(op)
    P = projector(op)
    C = np.zeros((dom.shape[0], d, P.shape[0]))
    for a, X in enumerate(dom):
        for k in range(d):
            C[a, k] = P @ np.multiply.outer(X, np.eye(d)[k]).ravel()
    return C


def symbol_coefficients(op: OperatorSpec) -> np.ndarray:
    """Coordinate matrices S_j with symbol(xi) = sum_j xi_j S_j, shape (d, m, n)."""
    C = _projected_dyads(op)
    cod = _range_orthobasis(projector(op))  # orthonormal rows spanning the codomain
    stack = np.zeros((op.dim, cod.shape[0], C.shape[0]))
    for j in range(op.dim):
        for col in range(C.shape[0]):
            stack[j, :, col] = cod @ C[col, j]
    return stack


def gradient_coupling(op: OperatorSpec) -> np.ndarray:
    """H[a,k,b,l] = <P(X_a otimes e_k), P(X_b otimes e_l)>, the projected-gradient Gram."""
    C = _projected_dyads(op)
    return np.einsum("akx,blx->akbl", C, C)


def symbol_matrix(op: OperatorSpec, xi: np.ndarray) -> SymbolMatrix:
    """Coordinate matrix of the symbol map at frequency xi (possibly complex)."""
    xi = np.asarray(xi)
    if np.linalg.norm(xi) == 0:
        raise ValueError("zero frequency")
    stack = symbol_coefficients(op)
    return SymbolMatrix(xi=xi, matrix=np.tensordot(xi, stack, axes=1))


def codomain_tensor(op: OperatorSpec, coords: np.ndarray) -> np.ndarray:
    """Reassemble a codomain tensor from its coordinates."""
    d = op.dim
    flat = coords @ _range_orthobasis(projector(op))
    shape = (d, d) if op.domain == "vectors" else (d, d, d)
    return flat.reshape(shape)


def domain_tensor(op: OperatorSpec, coords: np.ndarray) -> np.ndarray:
    """Reassemble a domain tensor from its coordinates."""
    dom = domain_basis(op)
    return np.tensordot(coords, dom, axes=1)


def domain_coords(op: OperatorSpec, X: np.ndarray) -> np.ndarray:
    """Coordinates of a domain tensor in the domain basis."""
    dom = domain_basis(op)
    return dom.reshape(dom.shape[0], -1) @ np.asarray(X).ravel()


def _real_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _complex_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _isotropic_samples(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random points on the isotropic cone xi.xi = 0: (a + i b)/sqrt(2), a perp b."""
    a = _real_sphere(rng, n, d)
    b = rng.standard_normal((n, d))
    b -= np.sum(a * b, axis=1, keepdims=True) * a
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return (a + 1j * b) / np.sqrt(2.0)


def _structured_isotropic(n: int, d: int) -> np.ndarray:
    """Deterministic isotropic family; at d = 2 the two cone generators (1, +-i)."""
    if d == 2:
        return np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0)
    phi = np.linspace(0.0, 2.0 * np.pi, max(n, 4), endpoint=False)
    xis = np.zeros((phi.size, d), dtype=complex)
    xis[:, 0] = 1.0
    xis[:, 1] = 1j * np.cos(phi)
    xis[:, 2] = 1j * np.sin(phi)
    return xis / np.sqrt(2.0)


def _frequencies(d: int, plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray]:
    """(real rows, whole batch) of the sampled frequencies: real unit directions,
    generic complex directions, random isotropic directions and the structured
    isotropic family, in this order; the batch holds the real rows as complex."""
    rng = np.random.default_rng(plan.seed)
    real = _real_sphere(rng, plan.n_real, d)
    rest = _complex_sphere(rng, plan.n_complex, d), _isotropic_samples(rng, plan.n_isotropic, d)
    return real, np.concatenate([real.astype(complex), *rest, _structured_isotropic(plan.n_structured, d)])


def _gram_blocks(coeffs: np.ndarray, xis: np.ndarray, starts):
    """(rows, Grams S(xi)^H S(xi) = sum_jk conj(xi_j) xi_k S_j^T S_k) per GRAM_BLOCK rows from each start."""
    d, _, n = coeffs.shape
    G = np.einsum("jan,kap->jknp", coeffs, coeffs).reshape(d * d, n * n)
    for rows in (slice(i, i + GRAM_BLOCK) for i in starts):
        w = (xis[rows].conj()[:, :, None] * xis[rows][:, None, :]).reshape(-1, d * d)
        yield rows, (w @ G if np.isrealobj(w) else w.real @ G + 1j * (w.imag @ G)).reshape(-1, n, n)


def screened_eigenvalues(coeffs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Least eigenvalue of the Gram S(xi)^H S(xi) at each row of xis, within delta (`screen_bound`)
    of sigma_min^2: one batched eigvalsh per GRAM_BLOCK rows, so one block's Grams live at a time."""
    lam = np.empty(len(xis))
    for rows, grams in _gram_blocks(coeffs, xis, range(0, len(xis), GRAM_BLOCK)):
        lam[rows] = np.linalg.eigvalsh(grams)[:, 0]
    return lam


def screen_bound(coeffs: np.ndarray) -> float:
    """A-priori bound delta = 64 (m + n + d^2) eps s on |screened eigenvalue - sigma_min^2| at
    unit xi, for S(xi) of m x n and s = sum_j |S_j|_F^2 >= |S(xi)|_F^2: forming the Gram errs by
    about (m + d^2) eps s, eigvalsh by p(n) eps |Gram|_2 with p(n) of order n (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002). The 64 covers the complex products and the
    constant in p(n); sampled errors stay below 0.2 (m + n + d^2) eps s."""
    d, m, n = coeffs.shape
    return 64.0 * (m + n + d * d) * np.finfo(float).eps * float(np.sum(coeffs**2))


def check_ellipticity(op: OperatorSpec, plan: SamplingPlan | None = None) -> EllipticityCheck:
    """Sample-based R- and C-ellipticity certificates from one frequency batch.

    The batch (`_frequencies`) holds real unit directions, generic complex directions, random
    isotropic directions and the structured isotropic family. The complex verdict reads the whole
    batch, the real verdict its first plan.n_real rows. A verdict is elliptic when the minimal
    singular value over its samples (at |xi| = 1) stays above the threshold tau = 1e-8; otherwise the
    minimizer and a kernel vector are returned as witness. A Gram screen decides what needs an exact
    SVD (`_verdict`). It screens every real row, then the complex rows GRAM_BLOCK at a time from the
    last block back, so the structured family sets the running minimum U first. If all Grams H of a
    block pass one batched Cholesky of H - mu I, mu = max(U, tau^2) + 4 delta + delta_c, then
    lambda_min(H) >= mu - delta_c: delta_c = 64 (n + 1) n eps (s + mu - delta_c) bounds a completed
    Cholesky's backward error (Higham 2002, Thm 10.3; Demmel, LAPACK Working Note 14, 1989). The
    block gets lam = mu - delta_c, no eigvalsh: its screened values would top max(U, tau^2) + 3 delta,
    past `_verdict`'s cut, so verdicts match screening every row; the walk order moves only speed.
    """
    plan = plan or SamplingPlan()
    real, xis = _frequencies(op.dim, plan)
    coeffs = symbol_coefficients(op)
    delta = screen_bound(coeffs)
    lam, _ = _screen(coeffs, real, xis, delta)
    return EllipticityCheck(
        real=_verdict(op, coeffs, real, lam[: plan.n_real], delta, plan.n_real),
        complex=_verdict(op, coeffs, xis, lam, delta, plan.n_real),
    )


def _screen(coeffs: np.ndarray, real: np.ndarray, xis: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(lam, certified rows) over xis, whose first rows are `real`, as `check_ellipticity` sets out."""
    lam, certified = np.empty(len(xis)), np.zeros(len(xis), dtype=bool)
    lam[: len(real)] = screened_eigenvalues(coeffs, real)
    n, s, low = coeffs.shape[2], float(np.sum(coeffs**2)), float(lam[: len(real)].min())
    for rows, grams in _gram_blocks(coeffs, xis, reversed(range(len(real), len(xis), GRAM_BLOCK))):
        bound = max(low, SINGULAR_VALUE_THRESHOLD**2) + 4.0 * delta
        try:  # shifted by mu = bound + delta_c
            np.linalg.cholesky(grams - (bound + 64.0 * (n + 1) * n * np.finfo(float).eps * (s + bound)) * np.eye(n))
        except np.linalg.LinAlgError:
            lam[rows] = np.linalg.eigvalsh(grams)[:, 0]
            low = min(low, float(lam[rows].min()))
        else:
            lam[rows], certified[rows] = bound, True
    return lam, certified


def _verdict(
    op: OperatorSpec, coeffs: np.ndarray, xis: np.ndarray, lam: np.ndarray, delta: float, n_real: int
) -> EllipticityVerdict:
    """Verdict over sampled symbols from lam, per row the screened Gram eigenvalue (within delta of
    sigma_min^2) or, on `_screen`'s certified rows, a bound lam - delta <= sigma_min^2 above the cut.
    If min lam - delta clears the threshold squared, so does every sample: the verdict is elliptic,
    and the SVD of the argmin of lam gives the minimum. Otherwise every sample with lam <= the cut
    max(min lam, threshold^2) + 2 delta gets an exact SVD; the rest lie above the threshold and the
    least sigma_min, so verdict, minimum and witness come from exact values (real rows as real)."""
    tau2, lmin = SINGULAR_VALUE_THRESHOLD**2, float(lam.min())
    rows = np.flatnonzero(lam <= max(lmin, tau2) + 2.0 * delta) if lmin - delta < tau2 else np.argmin(lam)[None]
    smins = np.empty(rows.size)
    for sel, x in ((rows < n_real, xis.real), (rows >= n_real, xis)):
        if sel.any():
            smins[sel] = np.linalg.svd(np.tensordot(x[rows[sel]], coeffs, axes=1), compute_uv=False)[:, -1]
    idx, smin = int(rows[np.argmin(smins)]), float(smins.min())
    elliptic = smin >= SINGULAR_VALUE_THRESHOLD
    witness = residual = None
    if not elliptic:
        mat = np.tensordot(xis[idx], coeffs, axes=1)
        _, _, vh = np.linalg.svd(mat)
        coords = vh[-1].conj()
        witness = domain_tensor(op, coords)
        residual = float(np.linalg.norm(mat @ coords) / np.linalg.norm(coords))
    return EllipticityVerdict(
        elliptic=elliptic,
        min_singular_value=smin,
        xi_min=xis[idx],
        n_samples=xis.shape[0],
        witness=witness,
        witness_residual=residual,
    )


def lh_constant(op: OperatorSpec) -> float:
    """Uniform lower bound on the symbol norm over rank-one directions.

    lambda = min over unit z, y of |P[z otimes y]|_F, positive exactly
    when the operator is R-elliptic. Every rank-2 codomain commutes with
    Q otimes Q for orthogonal Q, so |P[z otimes y]|^2 depends on z.y only,
    as beta + delta (z.y)^2; its minimum over unit pairs is attained at
    z.y = 0 or z.y = 1, at (e1, e2) or (e1, e1).
    """
    if op.domain != "vectors":
        raise ValueError("rank-one bound is defined for vector-field operators")
    P = projector(op)
    # columns 0 and 1 of P are P[e1 otimes e1] and P[e1 otimes e2], flattened
    return float(min(np.linalg.norm(P[:, 0]), np.linalg.norm(P[:, 1])))
