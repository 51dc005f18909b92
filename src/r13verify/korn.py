"""Korn-type constants on discrete spaces and divergence right-inverses.

The Korn constant is the largest Rayleigh quotient |v|_H1^2 over
(|v|_L2^2 + |Av|_L2^2), a lower bound for the continuous constant in the
squared-sum convention; sqrt of it bounds the sum-of-norms convention
from above. Both divergence right-inverses solve one auxiliary Dirichlet
problem for the projected gradient on a bubble space (the scalar one with
the identity projection), so the constructed field lies in the
projection's range exactly and satisfies the divergence identity weakly
against the whole test space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .assembly import STF_GRADIENT, ModelParams
from .assembly import _gradient_terms, _norm_terms, _sector_assemble, _shared_operator
from .ellipticity import SINGULAR_VALUE_THRESHOLD, OperatorSpec, domain_basis, lh_constant, projector
from .spaces import BubbleBasis, DiscreteSpaces, ScalarBasis, Sectors, mirror_masks

# relative slack of a coercivity chain: the form may undershoot a bound by
# this fraction of max(|form|, 1) before the chain counts as violated
CHAIN_VIOLATION_RTOL = 1e-12
# fields per column block of a coercivity chain: a constant, not an option, since the
# block's shape picks OpenBLAS's product kernel, and only at one width (the last
# block zero-padded) does each field's result keep its bits whatever its batch
CHAIN_BLOCK = 64


@dataclass(frozen=True)
class KornEstimate:
    op: OperatorSpec
    degree: int
    constant: float
    sum_convention_bound: float
    extremizer: np.ndarray


@dataclass(frozen=True)
class ChainReport:
    """Both sides of one coercivity chain evaluated for a given field."""

    form_value: float
    seminorm_sum: float
    min_coefficient: float
    lower_bound: float
    korn_lower_bound: float

    @property
    def holds(self) -> bool:
        slack = CHAIN_VIOLATION_RTOL * max(abs(self.form_value), 1.0)
        return (
            self.form_value >= self.lower_bound - slack
            and self.form_value >= self.korn_lower_bound - slack
        )


@dataclass(frozen=True)
class RightInverseResult:
    potential: np.ndarray
    tau: np.ndarray  # constructed field at the volume quadrature points
    tau_l2: float
    tau_h1: float
    bound_ratio: float
    weak_residual: float
    energy_gap: float
    range_residual: float


def _field_sectors(op: OperatorSpec, sb: ScalarBasis) -> Sectors:
    """The sectors of op's field: one block over sb per domain basis tensor, one subproblem."""
    return Sectors([(sb, mask, None, sb.sectors(mask), 0) for mask in mirror_masks(domain_basis(op))])


def _korn_grams(op: OperatorSpec, spaces: DiscreteSpaces) -> tuple[Sectors, list, list]:
    """(sectors, H1 blocks, L2 + projected-gradient blocks) of the Korn pencil on the spaces'
    scalar basis, or for op.dim == 2 on the plane basis of that basis's degree.

    The grams commute with the box's mirrors, so they are their diagonal
    sector blocks, assembled from the 1D factors; built once per operator
    and kept with the spaces.
    """
    if op not in spaces.korn:
        sb = spaces.scalar if op.dim == 3 else ScalarBasis(op.dim, spaces.scalar.degree, spaces.subdivisions)
        S, cache = _field_sectors(op, sb), {}
        h1, l2 = (_norm_terms(len(S.fields), is_h1, op.dim) for is_h1 in (True, False))
        grams = [_sector_assemble(t, S, S, cache) for t in (h1, _gradient_terms(op, 1.0, l2))]
        spaces.korn[op] = (S, *grams)
    return spaces.korn[op]


def _quadratic(blocks: list, sectors: Sectors, x: np.ndarray) -> float:
    """x^T M x for the M with one block per orbit, on each of its sectors."""
    return float(sum(y @ M @ y for M, Y in zip(blocks, sectors.split(sectors.to_sectors(x))) for y in Y))


def _column_quadratics(blocks: list, split: list) -> np.ndarray:
    """x^T M x for each column x of a matrix, given as its carried sector coordinates split
    by orbit (Sectors.split), for the M with one block per orbit, on each of its sectors."""
    return sum(np.einsum("ib,ib->b", Y, M @ Y) for M, orbit in zip(blocks, split) for Y in orbit)


def korn_constant(op: OperatorSpec, spaces: DiscreteSpaces) -> KornEstimate:
    """Discrete Korn constant for sym-gradient on vectors or Stf-gradient on stf fields.

    The largest eigenvalue of the pencil over its 2^dim mirror sectors, each
    an orbit of its own (the field's Sectors have no swaps); the extremizer
    is the top eigenvector of the sector that attains it. For
    op.dim == 2 the fields are plane (z-independent) and live on the unit
    square with the planar trace coefficient; this is the diagnostic
    configuration where the complex-ellipticity failure shows up as growth
    of the constant with the degree.
    """
    if (op.domain, op.codomain) not in (("vectors", "sym"), ("stf2", "Stf")):
        raise ValueError(f"unsupported operator {(op.domain, op.codomain)!r}")
    S, h1, lower = _korn_grams(op, spaces)
    pencils = [sla.eigh(G_h1, G_low) for G_h1, G_low in zip(h1, lower)]
    s = max(range(len(pencils)), key=lambda i: pencils[i][0][-1])  # the first sector attaining it
    vals, vecs = pencils[s]
    y = np.zeros(S.order.size)
    y[S.sectors[s]] = vecs[:, -1]
    return KornEstimate(op, spaces.scalar.degree, float(vals[-1]), float(np.sqrt(vals[-1])), S.from_sectors(y))


def operator_kernel_dimension(
    op: OperatorSpec, degree: int, subdivisions: int = 1, tol: float = 1e-10
) -> int:
    """Dimension of the discrete kernel {field : P[D field] = 0}.

    Complex-elliptic operators have finite-dimensional polynomial kernels,
    so the count saturates once the degree reaches the kernel's maximal
    polynomial degree (6 rigid motions for the symmetrized gradient, 35
    conformal-Killing-type fields for the stf gradient on stf fields at
    d = 3 from degree 4 on). The planar stf gradient is the counterexample
    and shows the unbounded growth 2N + 2 instead. The count is summed over
    the gram's mirror sectors, each cut at tol times max(largest eigenvalue, 1).
    """
    S = _field_sectors(op, ScalarBasis(op.dim, degree, subdivisions))
    vals = [np.linalg.eigvalsh(G) for G in _sector_assemble(_gradient_terms(op, 1.0, {}), S, S, {})]
    cut = tol * max(max(v[-1] for v in vals), 1.0)
    return int(sum(np.sum(v < cut) for v in vals))


def korn_rayleigh(op: OperatorSpec, spaces: DiscreteSpaces, coeffs: np.ndarray) -> float:
    """Rayleigh quotient of the Korn pencil at a given coefficient vector."""
    S, h1, lower = _korn_grams(op, spaces)
    x = np.asarray(coeffs).ravel()
    if x.size != S.order.size:
        raise ValueError(f"coefficient vector has {x.size} entries, expected {S.order.size}")
    num, den = _quadratic(h1, S, x), _quadratic(lower, S, x)
    if den == 0.0:
        raise ValueError("the Rayleigh quotient of a zero coefficient vector is undefined")
    return num / den


def coercivity_chain_check(
    kind: str, fields, spaces: DiscreteSpaces, params: ModelParams
) -> list[ChainReport]:
    """Evaluate one coercivity chain for each of a sequence of discrete fields.

    kind 'heat': each field is s, shaped (3, n_scalar) or flattened, and
    a(s, s) is checked against min{(24/25) Kn, (4/15)/Kn} times the
    sym-gradient seminorm sum; kind 'stress': each field is a pair
    (sigma, p), sigma shaped (5, n_scalar) and p (n_p,), and
    dbar((sigma, p), same) is checked against min{Kn, 1/(2 Kn)} times the
    Stf-gradient seminorm sum. A field of another shape raises a
    ValueError before any is evaluated. The Korn lower bound divides by
    the discrete Korn constant to reach the full H1 norm.

    The fields are the columns of blocks of CHAIN_BLOCK, the last one
    zero-padded. Per block, one carry of U to the shared operator's sector
    coordinates gives the forms from its orbit blocks, and one carry of
    the Korn field's rows gives both seminorms from the Korn grams'. The
    width is fixed because the product kernel, and so the bits, depend on
    it: at one width a field's report does not depend on its batch.
    """
    n, kn, vb = spaces.n_scalar, params.kn, spaces.v_blocks
    if kind == "heat":
        xs = [np.asarray(s) for s in fields]
        for i, s in enumerate(xs):
            if s.shape not in ((3, n), (3 * n,)):
                raise ValueError(f"heat field {i} has shape {s.shape}, expected (3, {n}) or ({3 * n},)")
        xs = [s.ravel() for s in xs]
        rows, op = vb["s"], OperatorSpec("vectors", "sym", 3)
        cmin = min((24.0 / 25.0) * kn, (4.0 / 15.0) / kn)
    elif kind == "stress":
        xs = []
        for i, (sig, p) in enumerate(fields):
            sig, p = np.asarray(sig), np.asarray(p)
            if sig.shape != (5, n) or p.shape != (spaces.n_p,):
                raise ValueError(
                    f"stress field {i} has sigma {sig.shape} and p {p.shape}, expected (5, {n}) and ({spaces.n_p},)"
                )
            xs.append(np.concatenate([sig.ravel(), p]))
        rows, op = np.r_[vb["sigma"], vb["p"]], STF_GRADIENT
        cmin = min(kn, 0.5 / kn)
    else:
        raise ValueError(f"unknown chain kind {kind!r}")

    A = _shared_operator(spaces, params)
    V, (S, h1, lower) = A.structure.V, _korn_grams(op, spaces)
    korn = korn_constant(op, spaces).constant
    reports = []
    for start in range(0, len(xs), CHAIN_BLOCK):
        chunk = xs[start : start + CHAIN_BLOCK]
        U = np.zeros((spaces.n_V, CHAIN_BLOCK))  # the padding columns stay zero
        U[rows, : len(chunk)] = np.transpose(chunk)
        Y = S.split(S.to_sectors(U[rows][: S.order.size]))
        forms = _column_quadratics(A.sectors, V.split(V.to_sectors(U)))[: len(chunk)]
        for form, semi, h in zip(forms.tolist(), *(_column_quadratics(G, Y).tolist() for G in (lower, h1))):
            reports.append(ChainReport(form, semi, cmin, cmin * semi, cmin / korn * h))
    return reports


def _auxiliary_dirichlet(u_vals: np.ndarray, P: np.ndarray, spaces: DiscreteSpaces) -> RightInverseResult:
    """tau = P[D v] with -div tau = u weakly, from the auxiliary Dirichlet problem.

    u_vals holds the c components of the data at the volume quadrature
    points of spaces.scalar, (q, c), and P projects the flattened (c, 3)
    gradient. v is the c-component potential on the bubble space one
    degree above spaces.scalar with (P[D v], D w) = (u, w) for every w
    there, and tau, shaped (q, c, 3), its projected gradient at the same
    points. Returns v, tau and the measured quality indicators:
    H1-over-L2 bound ratio, weak divergence residual over the test space,
    energy identity gap, and the re-projection residual of tau (zero by
    construction up to rounding).
    """
    sb, c = spaces.scalar, u_vals.shape[1]
    bb = BubbleBasis(3, sb.degree + 1, sb.b1.nodes, sb.b1.weights)
    w, P4 = bb.weights, P.reshape(c, 3, c, 3)
    # the stiffness of the projected gradient: per derivative pair (b, e), the
    # coefficient block P4[:, b, :, e] times the scalar gram of d_b and d_e
    K = sum(np.kron(P4[:, b, :, e], bb.dphi[b].T @ (w[:, None] * bb.dphi[e])) for b in range(3) for e in range(3))
    rhs = np.concatenate([bb.phi.T @ (w * u_vals[:, i]) for i in range(c)])
    v = sla.solve(K, rhs, assume_a="pos").reshape(c, bb.n)

    # tau and its gradient at the quadrature points
    dv = np.einsum("iI,kqI->qik", v, bb.dphi)
    nq = dv.shape[0]
    tau = (dv.reshape(nq, 3 * c) @ P.T).reshape(nq, c, 3)
    ddv = np.zeros((nq, c, 3, 3))
    for a in range(3):
        for b in range(3):
            ddv[:, :, a, b] = np.einsum("iI,qI->qi", v, bb.d2phi[min(a, b), max(a, b)])
    dtau = np.einsum("xyik,qikc->qxyc", P4, ddv)

    tau_l2_sq = float(np.sum(w * np.einsum("qij,qij->q", tau, tau)))
    tau_h1_sq = tau_l2_sq + float(np.sum(w * np.einsum("qijc,qijc->q", dtau, dtau)))
    u_l2 = float(np.sqrt(np.sum(w * np.einsum("qi,qi->q", u_vals, u_vals))))

    # weak divergence residual over the bubble test space; the H1 gram is the
    # scalar one per component, so one factor serves all c
    R = np.array([
        sum(bb.dphi[k].T @ (w * tau[:, i, k]) for k in range(3)) - bb.phi.T @ (w * u_vals[:, i])
        for i in range(c)
    ])
    weak_residual = float(np.sqrt(np.sum(R.T * sla.cho_solve(sla.cho_factor(bb.h1_gram()), R.T))))

    v_vals = np.einsum("iI,qI->qi", v, bb.phi)
    energy_gap = abs(tau_l2_sq - float(np.sum(w * np.einsum("qi,qi->q", u_vals, v_vals))))
    energy_gap /= max(tau_l2_sq, 1e-30)

    reproj = tau.reshape(nq, 3 * c) @ P.T - tau.reshape(nq, 3 * c)
    range_residual = float(
        np.sqrt(np.sum(w * np.einsum("qx,qx->q", reproj, reproj)))
        / max(np.sqrt(tau_l2_sq), 1e-30)
    )
    return RightInverseResult(
        potential=v,
        tau=tau,
        tau_l2=float(np.sqrt(tau_l2_sq)),
        tau_h1=float(np.sqrt(tau_h1_sq)),
        bound_ratio=float(np.sqrt(tau_h1_sq) / max(u_l2, 1e-30)),
        weak_residual=weak_residual,
        energy_gap=energy_gap,
        range_residual=range_residual,
    )


def div_right_inverse(u_coeffs: np.ndarray, proj: str, spaces: DiscreteSpaces) -> RightInverseResult:
    """Right inverse of the matrix divergence: tau = proj(D v), (q, 3, 3), from the
    auxiliary Dirichlet problem for the projected gradient (`_auxiliary_dirichlet`)."""
    op = OperatorSpec("vectors", proj, 3)
    if lh_constant(op) < SINGULAR_VALUE_THRESHOLD:  # the least real symbol singular value
        raise ValueError("operator not elliptic")
    u = np.asarray(u_coeffs).reshape(3, spaces.scalar.n)
    return _auxiliary_dirichlet(np.einsum("iI,qI->qi", u, spaces.scalar.phi), projector(op), spaces)


def scalar_div_right_inverse(kappa_coeffs: np.ndarray, spaces: DiscreteSpaces) -> RightInverseResult:
    """Vector field t = grad v, (q, 3), with -div t = kappa weakly, from a scalar potential
    v, (n_b,): the auxiliary Dirichlet problem with one component and P the identity."""
    # BLAS here, einsum in div_right_inverse: the report's rinv rows are rounding
    # noise, and each keeps its bits only with the contraction it was recorded with
    res = _auxiliary_dirichlet((spaces.scalar.phi @ np.ravel(kappa_coeffs))[:, None], np.eye(3), spaces)
    return replace(res, potential=res.potential[0], tau=res.tau[:, 0])
