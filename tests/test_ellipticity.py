from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r13verify.ellipticity import (
    RANK2_CODOMAINS,
    OperatorSpec,
    SamplingPlan,
    apply_symbol,
    check_ellipticity,
    codomain_tensor,
    domain_coords,
    general_d_prefactors,
    lh_constant,
    projector,
    screen_bound,
    screened_eigenvalues,
    symbol_coefficients,
    symbol_matrix,
)
from r13verify.ellipticity import _frequencies
from r13verify.tensors import project2

from helpers import random_stf2, stf_gradient_symbol_direct, svd_ellipticity_oracle

STF_GRAD = {d: OperatorSpec("stf2", "Stf", d) for d in (2, 3, 4, 5)}
FAST_PLAN = SamplingPlan(n_real=512, n_complex=512, n_isotropic=256, n_structured=128, seed=7)


def test_symbol_matches_direct_formula_d3():
    rng = np.random.default_rng(10)
    op = STF_GRAD[3]
    for xi in [np.array([1.0, 0, 0]), rng.standard_normal(3) + 1j * rng.standard_normal(3)]:
        T = random_stf2(rng, 3, complex_valued=True)
        expected = stf_gradient_symbol_direct(T, xi)
        assert_allclose(apply_symbol(op, T, xi), expected, atol=1e-13)
        sm = symbol_matrix(op, xi)
        out = codomain_tensor(op, sm.matrix @ domain_coords(op, T))
        assert_allclose(out, expected, atol=1e-13)


def test_symbol_matches_direct_formula_other_dims():
    rng = np.random.default_rng(11)
    for d in (2, 4):
        op = STF_GRAD[d]
        T = random_stf2(rng, d, complex_valued=True)
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert_allclose(apply_symbol(op, T, xi), stf_gradient_symbol_direct(T, xi), atol=1e-13)


def test_symbol_linear_in_xi():
    rng = np.random.default_rng(12)
    for op in (STF_GRAD[3], OperatorSpec("vectors", "sym", 3), OperatorSpec("full2", "Dev", 3)):
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert_allclose(symbol_matrix(op, 2 * xi).matrix, 2 * symbol_matrix(op, xi).matrix, atol=1e-13)


def test_zero_frequency_rejected():
    with pytest.raises(ValueError, match="zero frequency"):
        symbol_matrix(STF_GRAD[3], np.zeros(3))


def test_planar_kernel_pair():
    # At d = 2 the symbol annihilates T = [[i, 1], [1, -i]] at xi = (1, i).
    T = np.array([[1j, 1.0], [1.0, -1j]])
    xi = np.array([1.0, 1j])
    assert np.linalg.norm(apply_symbol(STF_GRAD[2], T, xi)) < 1e-13


def test_contraction_identity_d3():
    # Triple xi-contraction of the symbol output collapses to
    # (3/5) (xi.xi)(xi.T xi) for stf T.
    rng = np.random.default_rng(13)
    op = STF_GRAD[3]
    for _ in range(25):
        T = random_stf2(rng, 3, complex_valued=True)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        S = apply_symbol(op, T, xi)
        lhs = np.einsum("ijk,i,j,k->", S, xi, xi, xi)
        rhs = 0.6 * (xi @ xi) * (xi @ T @ xi)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_skew_in_kernel_on_full_tensors():
    rng = np.random.default_rng(14)
    op = OperatorSpec("full2", "Stf", 3)
    W = rng.standard_normal((3, 3))
    W = 0.5 * (W - W.T)
    xi = rng.standard_normal(3)
    assert np.linalg.norm(apply_symbol(op, W, xi)) < 1e-13
    verdict = check_ellipticity(op, FAST_PLAN).real
    assert not verdict.elliptic


@pytest.mark.parametrize("d", [3, 4, 5])
def test_stf_gradient_c_elliptic_for_d_ge_3(d):
    verdict = check_ellipticity(STF_GRAD[d], FAST_PLAN).complex
    assert verdict.elliptic
    assert verdict.min_singular_value >= 1e-8


def test_stf_gradient_not_c_elliptic_d2():
    verdict = check_ellipticity(STF_GRAD[2], FAST_PLAN).complex
    assert not verdict.elliptic
    assert verdict.witness is not None
    assert verdict.witness_residual <= 1e-10
    # the minimizer sits on the isotropic cone
    assert abs(verdict.xi_min @ verdict.xi_min) < 1e-10
    # the reconstructed witness tensor is annihilated by the symbol itself
    out = apply_symbol(STF_GRAD[2], verdict.witness, verdict.xi_min)
    assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(verdict.witness)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stf_gradient_r_elliptic_all_d(d):
    verdict = check_ellipticity(STF_GRAD[d], FAST_PLAN).real
    assert verdict.elliptic
    assert verdict.min_singular_value >= 1e-8


def test_symmetrized_gradient_c_elliptic():
    verdict = check_ellipticity(OperatorSpec("vectors", "sym", 3), FAST_PLAN).complex
    assert verdict.elliptic


def test_check_ellipticity_deterministic():
    a = check_ellipticity(STF_GRAD[3], FAST_PLAN).complex
    b = check_ellipticity(STF_GRAD[3], FAST_PLAN).complex
    assert a.min_singular_value == b.min_singular_value
    assert np.array_equal(a.xi_min, b.xi_min)


def test_real_verdict_reads_the_real_rows():
    check = check_ellipticity(STF_GRAD[3], FAST_PLAN)
    assert check.real.n_samples == FAST_PLAN.n_real
    assert check.n_samples == check.complex.n_samples > FAST_PLAN.n_real
    assert np.isrealobj(check.real.xi_min)
    # the complex strata are drawn after the real ones and do not move them
    real_only = replace(FAST_PLAN, n_complex=0, n_isotropic=0, n_structured=0)
    alone = check_ellipticity(STF_GRAD[3], real_only).real
    assert alone.min_singular_value == check.real.min_singular_value
    assert np.array_equal(alone.xi_min, check.real.xi_min)
    assert alone.n_samples == check.real.n_samples


def grid_min_oracle(kind: str, n: int = 400) -> float:
    # independent coarse search for min |proj(z otimes y)| over unit pairs
    rng = np.random.default_rng(99)
    Z = rng.standard_normal((n, 3))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    best = np.inf
    for z in Z:
        for y in Z[::4]:
            val = np.linalg.norm(project2(np.outer(z, y), kind))
            best = min(best, val)
    return best


def random_orthogonal(rng: np.random.Generator, d: int, det: float) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if np.sign(np.linalg.det(Q)) != det:
        Q[:, 0] = -Q[:, 0]
    return Q


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rank2_projectors_commute_with_orthogonal_maps(d):
    # the premise of the closed-form rank-one bound: P[Q A Q^T] = Q P[A] Q^T
    # for rotations and reflections alike
    rng = np.random.default_rng(20 + d)
    for det in (1.0, -1.0):
        Q = random_orthogonal(rng, d, det)
        QQ = np.kron(Q, Q)
        for kind in RANK2_CODOMAINS:
            P = projector(OperatorSpec("vectors", kind, d))
            assert np.max(np.abs(P @ QQ - QQ @ P)) <= 1e-13, (kind, det)


def test_lh_constant_never_above_sampled_pairs():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5):
        Z = rng.standard_normal((10**4, d))
        Y = rng.standard_normal((10**4, d))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        dyads = np.einsum("ai,aj->aij", Z, Y).reshape(-1, d * d)
        for kind in RANK2_CODOMAINS:
            op = OperatorSpec("vectors", kind, d)
            norms = np.linalg.norm(dyads @ projector(op).T, axis=1)
            assert norms.min() >= lh_constant(op) - 1e-12, (kind, d)


def test_lh_constant_identity():
    for d in (2, 3, 4, 5):
        assert lh_constant(OperatorSpec("vectors", "identity", d)) == pytest.approx(1.0, abs=1e-14)


def test_lh_constant_stf_and_sym():
    for d in (2, 3, 4, 5):
        for kind in ("stf", "sym"):
            lam = lh_constant(OperatorSpec("vectors", kind, d))
            assert lam == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)
    lam_stf = lh_constant(OperatorSpec("vectors", "stf", 3))
    lam_sym = lh_constant(OperatorSpec("vectors", "sym", 3))
    # coarse independent oracle can only overestimate the minimum
    assert lam_stf <= grid_min_oracle("stf") + 1e-9
    assert lam_sym <= grid_min_oracle("sym") + 1e-9


def test_lh_constant_skew():
    # skew(z x z) = 0: the skew part of the gradient is not R-elliptic
    for d in (2, 3, 4, 5):
        assert lh_constant(OperatorSpec("vectors", "skew", d)) == pytest.approx(0.0, abs=1e-14)


def test_prefactors_d3_exact():
    p = general_d_prefactors(3)
    assert p.as_tuple() == (
        Fraction(1, 5),
        Fraction(2, 15),
        Fraction(3, 5),
        Fraction(8, 15),
        Fraction(1, 15),
    )


def test_prefactors_d2_case2_vanishes():
    assert general_d_prefactors(2).c_case2 == 0


def test_prefactors_d4_positive():
    p = general_d_prefactors(4)
    assert all(v > 0 for v in p.as_tuple())


def test_prefactors_reject_d1():
    with pytest.raises(ValueError):
        general_d_prefactors(1)


def test_operator_spec_validation():
    with pytest.raises(ValueError, match="rank-2 codomain"):
        OperatorSpec("vectors", "Stf", 3)
    with pytest.raises(ValueError, match="rank-3 codomain"):
        OperatorSpec("stf2", "sym", 3)
    with pytest.raises(ValueError, match="unknown domain"):
        OperatorSpec("scalars", "sym", 3)
    with pytest.raises(ValueError, match="dimension"):
        OperatorSpec("vectors", "sym", 1)


def test_contraction_identity_general_d():
    # triple xi-contraction of the symbol reproduces the full-contraction
    # prefactor d/(d+2) from the rational table, for complex arguments
    rng = np.random.default_rng(15)
    for d in (2, 3, 4, 5):
        op = STF_GRAD[d]
        factor = float(general_d_prefactors(d).c_core1)
        for _ in range(5):
            T = random_stf2(rng, d, complex_valued=True)
            xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            S = apply_symbol(op, T, xi)
            lhs = np.einsum("ijk,i,j,k->", S, xi, xi, xi)
            rhs = factor * (xi @ xi) * (xi @ T @ xi)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_lh_constant_dev():
    # |dev(z x y)|^2 = 1 - (z.y)^2/d is minimized at aligned vectors
    for d in (2, 3, 4, 5):
        lam = lh_constant(OperatorSpec("vectors", "dev", d))
        assert lam == pytest.approx(np.sqrt(1.0 - 1.0 / d), abs=1e-14)


SCREENED_OPS = [*STF_GRAD.values(), OperatorSpec("vectors", "sym", 3), OperatorSpec("full2", "Sym", 3)]


@pytest.mark.parametrize("op", SCREENED_OPS, ids=lambda op: f"{op.domain}-{op.codomain}-d{op.dim}")
@pytest.mark.parametrize("seed", [0, 1])
def test_gram_screen_within_a_hundredth_of_its_bound(op, seed):
    # every sample's screened eigenvalue is within delta / 100 of its exact sigma_min^2
    plan = SamplingPlan(seed=seed)
    real, xis = _frequencies(op.dim, plan)
    coeffs = symbol_coefficients(op)
    delta = screen_bound(coeffs)
    for x in (real, xis[plan.n_real :]):
        smin = np.linalg.svd(np.tensordot(x, coeffs, axes=1), compute_uv=False)[:, -1]
        assert np.abs(screened_eigenvalues(coeffs, x) - smin**2).max() <= delta / 100


@pytest.mark.parametrize("op", [STF_GRAD[2], OperatorSpec("full2", "Sym", 3)], ids=["stf-d2", "full2-Sym-d3"])
def test_fallback_matches_svd_only_oracle(op):
    # the screen cannot certify these, so the minimum, its frequency and the
    # witness come from exact SVDs, as they did when every sample had one
    real, xis = _frequencies(op.dim, FAST_PLAN)
    check = check_ellipticity(op, FAST_PLAN)
    smin, idx, residual = svd_ellipticity_oracle(op, xis, FAST_PLAN.n_real)
    assert not check.complex.elliptic
    assert check.complex.min_singular_value == smin
    assert np.array_equal(check.complex.xi_min, xis[idx])
    assert check.complex.witness_residual == residual


@pytest.mark.parametrize("d", [3, 4, 5])
def test_certified_minimum_is_an_exact_svd(d):
    # a certified batch reports the exact singular value at the screen's argmin,
    # within the bound of the sampled minimum the oracle finds
    op = STF_GRAD[d]
    real, xis = _frequencies(d, FAST_PLAN)
    coeffs = symbol_coefficients(op)
    vc = check_ellipticity(op, FAST_PLAN).complex
    exact = np.linalg.svd(np.tensordot(vc.xi_min, coeffs, axes=1), compute_uv=False)[-1]
    smin, _, _ = svd_ellipticity_oracle(op, xis, FAST_PLAN.n_real)
    assert vc.elliptic and vc.witness is None
    assert vc.min_singular_value == pytest.approx(exact, rel=1e-14)
    assert 0 <= vc.min_singular_value**2 - smin**2 <= 2 * screen_bound(coeffs)
