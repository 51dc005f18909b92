"""Korn-type constants on discrete spaces and divergence right-inverses.

The Korn constant is the largest Rayleigh quotient |v|_H1^2 over
(|v|_L2^2 + |Av|_L2^2), a lower bound for the continuous constant in the
squared-sum convention; sqrt of it bounds the sum-of-norms convention
from above. The right-inverse solves the auxiliary Dirichlet problem for
the projected gradient on a bubble space, so the constructed tensor field
lies in the projection's range exactly and satisfies the divergence
identity weakly against the whole test space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import STF_GRADIENT, ModelParams, assemble_form, projected_gradient_gram
from .ellipticity import OperatorSpec, SamplingPlan, check_ellipticity, domain_basis, projector
from .spaces import BubbleBasis, DiscreteSpaces, ScalarBasis


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
        scale = max(abs(self.form_value), 1.0)
        return (
            self.form_value >= self.lower_bound - 1e-12 * scale
            and self.form_value >= self.korn_lower_bound - 1e-12 * scale
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


def _field_basis(op: OperatorSpec, spaces: DiscreteSpaces) -> ScalarBasis:
    """The spaces' scalar basis, or its plane (z-independent) version for op.dim == 2."""
    if op.dim == 3:
        return spaces.scalar
    if op.dim == 2:
        return ScalarBasis(2, spaces.degree, spaces.subdivisions)
    raise ValueError("dim must be 2 or 3")


def _field_grams(op: OperatorSpec, sb: ScalarBasis):
    """(H1 gram, L2 gram, projected-gradient gram) over the component blocks."""
    nc = domain_basis(op).shape[0]
    return np.kron(np.eye(nc), sb.h1()), np.kron(np.eye(nc), sb.mass()), projected_gradient_gram(op, sb)


def _korn_estimate(op: OperatorSpec, degree: int, grams) -> KornEstimate:
    G_h1, G_l2, G_op = grams
    vals, vecs = sla.eigh(G_h1, G_l2 + G_op)
    c = float(vals[-1])
    return KornEstimate(
        op=op,
        degree=degree,
        constant=c,
        sum_convention_bound=float(np.sqrt(c)),
        extremizer=vecs[:, -1],
    )


def korn_constant(op: OperatorSpec, spaces: DiscreteSpaces) -> KornEstimate:
    """Discrete Korn constant for sym-gradient on vectors or Stf-gradient on stf fields.

    For op.dim == 2 the fields are plane (z-independent) and live on the
    unit square with the planar trace coefficient; this is the diagnostic
    configuration where the complex-ellipticity failure shows up as growth
    of the constant with the degree.
    """
    if (op.domain, op.codomain) not in (("vectors", "sym"), ("stf2", "Stf")):
        raise ValueError(f"unsupported operator {(op.domain, op.codomain)!r}")
    return _korn_estimate(op, spaces.degree, _field_grams(op, _field_basis(op, spaces)))


def operator_kernel_dimension(
    op: OperatorSpec, degree: int, subdivisions: int = 1, tol: float = 1e-10
) -> int:
    """Dimension of the discrete kernel {field : P[D field] = 0}.

    Complex-elliptic operators have finite-dimensional polynomial kernels,
    so the count saturates once the degree reaches the kernel's maximal
    polynomial degree (6 rigid motions for the symmetrized gradient, 35
    conformal-Killing-type fields for the stf gradient on stf fields at
    d = 3 from degree 4 on). The planar stf gradient is the counterexample
    and shows the unbounded growth 2N + 2 instead.
    """
    vals = np.linalg.eigvalsh(projected_gradient_gram(op, ScalarBasis(op.dim, degree, subdivisions)))
    return int(np.sum(vals < tol * max(vals[-1], 1.0)))


def korn_rayleigh(op: OperatorSpec, spaces: DiscreteSpaces, coeffs: np.ndarray) -> float:
    """Rayleigh quotient of the Korn pencil at a given coefficient vector."""
    G_h1, G_l2, G_op = _field_grams(op, _field_basis(op, spaces))
    return float((coeffs @ G_h1 @ coeffs) / (coeffs @ (G_l2 + G_op) @ coeffs))


def coercivity_chain_check(
    kind: str, fields, spaces: DiscreteSpaces, params: ModelParams
) -> list[ChainReport]:
    """Evaluate one coercivity chain for each of a sequence of discrete fields.

    kind 'heat': each field is s, and a(s, s) is checked against
    min{(24/25) Kn, (4/15)/Kn} times the sym-gradient seminorm sum; kind
    'stress': each field is a pair (sigma, p), and dbar((sigma, p), same)
    is checked against min{Kn, 1/(2 Kn)} times the Stf-gradient seminorm
    sum. The Korn lower bound divides by the discrete Korn constant to
    reach the full H1 norm. The form, the grams and the Korn constant are
    built once per call.
    """
    kn = params.kn
    if kind == "heat":
        xs = [np.asarray(s).ravel() for s in fields]
        form = assemble_form("a", spaces, params)
        op = OperatorSpec("vectors", "sym", 3)
        cmin = min((24.0 / 25.0) * kn, (4.0 / 15.0) / kn)
    elif kind == "stress":
        xs = [np.concatenate([np.asarray(sig).ravel(), np.asarray(p).ravel()]) for sig, p in fields]
        form = assemble_form("dbar", spaces, params)
        op = STF_GRADIENT
        cmin = min(kn, 0.5 / kn)
    else:
        raise ValueError(f"unknown chain kind {kind!r}")

    grams = _field_grams(op, spaces.scalar)
    G_h1, G_l2, G_op = grams
    G_sum = G_l2 + G_op
    korn = _korn_estimate(op, spaces.degree, grams).constant
    reports = []
    for x in xs:
        xf = x[: G_l2.shape[0]]
        seminorm_sum = float(xf @ G_sum @ xf)
        reports.append(
            ChainReport(
                form_value=float(x @ form @ x),
                seminorm_sum=seminorm_sum,
                min_coefficient=cmin,
                lower_bound=cmin * seminorm_sum,
                korn_lower_bound=cmin / korn * float(xf @ G_h1 @ xf),
            )
        )
    return reports


def _bubble_vector_system(P2: np.ndarray, bb: BubbleBasis):
    """Stiffness of the projected gradient on the vector bubble space."""
    d = bb.dim
    nb = bb.n
    P4 = P2.reshape(d, d, d, d)
    K = np.zeros((d * nb, d * nb))
    w = bb.weights[:, None]
    for i in range(d):
        for j in range(d):
            blk = np.zeros((nb, nb))
            for b in range(d):
                for e in range(d):
                    if abs(P4[i, b, j, e]) > 1e-15:
                        blk += P4[i, b, j, e] * (bb.dphi[b].T @ (w * bb.dphi[e]))
            K[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = blk
    return K


def div_right_inverse(u_coeffs: np.ndarray, proj: str, spaces: DiscreteSpaces) -> RightInverseResult:
    """Right inverse of the matrix divergence through the auxiliary problem.

    Solves the Dirichlet system for the projected gradient on the
    degree-(N+1) bubble space, returns tau = proj(D v) and the measured
    quality indicators: H1-over-L2 bound ratio, weak divergence residual
    over the test space, energy identity gap, and the re-projection
    residual of tau (zero by construction up to rounding).
    """
    op = OperatorSpec("vectors", proj, 3)
    if proj != "identity":
        verdict = check_ellipticity(
            op, "R", SamplingPlan(n_real=2048, n_complex=0, n_isotropic=0, n_structured=0, seed=0)
        )
        if not verdict.elliptic:
            raise ValueError("operator not elliptic")
    sb = spaces.scalar
    bb = BubbleBasis(3, spaces.degree + 1, sb.b1.nodes, sb.b1.weights)
    P2 = projector(op)

    K = _bubble_vector_system(P2, bb)
    u = np.asarray(u_coeffs).reshape(3, sb.n)
    u_vals = np.einsum("iI,qI->qi", u, sb.phi)
    rhs = np.concatenate([bb.phi.T @ (bb.weights * u_vals[:, i]) for i in range(3)])
    v = sla.solve(K, rhs, assume_a="pos")
    vb = v.reshape(3, bb.n)

    # tau and its gradient at the quadrature points
    dv = np.einsum("iI,kqI->qik", vb, bb.dphi)
    nq = dv.shape[0]
    tau = (dv.reshape(nq, 9) @ P2.T).reshape(nq, 3, 3)
    ddv = np.zeros((nq, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            key = (min(a, b), max(a, b))
            ddv[:, :, a, b] = np.einsum("iI,qI->qi", vb, bb.d2phi[key])
    dtau = np.einsum("xyik,qikc->qxyc", P2.reshape(3, 3, 3, 3), ddv)

    w = bb.weights
    tau_l2_sq = float(np.sum(w * np.einsum("qij,qij->q", tau, tau)))
    tau_h1_sq = tau_l2_sq + float(np.sum(w * np.einsum("qijc,qijc->q", dtau, dtau)))
    u_l2 = float(np.sqrt(np.sum(w * np.einsum("qi,qi->q", u_vals, u_vals))))

    # weak divergence residual over the bubble test space
    r = np.zeros(3 * bb.n)
    for i in range(3):
        acc = np.zeros(bb.n)
        for k in range(3):
            acc += bb.dphi[k].T @ (w * tau[:, i, k])
        r[i * bb.n : (i + 1) * bb.n] = acc - bb.phi.T @ (w * u_vals[:, i])
    Gh1 = np.kron(np.eye(3), bb.h1_gram())
    ch = sla.cho_factor(Gh1)
    weak_residual = float(np.sqrt(r @ sla.cho_solve(ch, r)))

    v_vals = np.einsum("iI,qI->qi", vb, bb.phi)
    energy_gap = abs(tau_l2_sq - float(np.sum(w * np.einsum("qi,qi->q", u_vals, v_vals))))
    energy_gap /= max(tau_l2_sq, 1e-30)

    reproj = tau.reshape(nq, 9) @ P2.T - tau.reshape(nq, 9)
    range_residual = float(
        np.sqrt(np.sum(w * np.einsum("qx,qx->q", reproj, reproj)))
        / max(np.sqrt(tau_l2_sq), 1e-30)
    )
    return RightInverseResult(
        potential=vb,
        tau=tau,
        tau_l2=float(np.sqrt(tau_l2_sq)),
        tau_h1=float(np.sqrt(tau_h1_sq)),
        bound_ratio=float(np.sqrt(tau_h1_sq) / max(u_l2, 1e-30)),
        weak_residual=weak_residual,
        energy_gap=energy_gap,
        range_residual=range_residual,
    )


def scalar_div_right_inverse(kappa_coeffs: np.ndarray, spaces: DiscreteSpaces) -> RightInverseResult:
    """Vector field t = grad v with -div t = kappa weakly, from a scalar potential."""
    sb = spaces.scalar
    bb = BubbleBasis(3, spaces.degree + 1, sb.b1.nodes, sb.b1.weights)
    w = bb.weights
    K = np.zeros((bb.n, bb.n))
    for k in range(3):
        K += bb.dphi[k].T @ (w[:, None] * bb.dphi[k])
    kap_vals = sb.phi @ np.asarray(kappa_coeffs).ravel()
    rhs = bb.phi.T @ (w * kap_vals)
    v = sla.solve(K, rhs, assume_a="pos")

    t = np.einsum("I,kqI->qk", v, bb.dphi)
    nq = t.shape[0]
    dt = np.zeros((nq, 3, 3))
    for a in range(3):
        for b in range(3):
            key = (min(a, b), max(a, b))
            dt[:, a, b] = bb.d2phi[key] @ v
    t_l2_sq = float(np.sum(w * np.einsum("qk,qk->q", t, t)))
    t_h1_sq = t_l2_sq + float(np.sum(w * np.einsum("qab,qab->q", dt, dt)))
    kap_l2 = float(np.sqrt(np.sum(w * kap_vals**2)))

    r = np.zeros(bb.n)
    for k in range(3):
        r += bb.dphi[k].T @ (w * t[:, k])
    r -= bb.phi.T @ (w * kap_vals)
    ch = sla.cho_factor(bb.h1_gram())
    weak_residual = float(np.sqrt(r @ sla.cho_solve(ch, r)))

    v_vals = bb.phi @ v
    energy_gap = abs(t_l2_sq - float(np.sum(w * kap_vals * v_vals)))
    energy_gap /= max(t_l2_sq, 1e-30)
    return RightInverseResult(
        potential=v,
        tau=t,
        tau_l2=float(np.sqrt(t_l2_sq)),
        tau_h1=float(np.sqrt(t_h1_sq)),
        bound_ratio=float(np.sqrt(t_h1_sq) / max(kap_l2, 1e-30)),
        weak_residual=weak_residual,
        energy_gap=energy_gap,
        range_residual=0.0,
    )
