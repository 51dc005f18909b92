import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r13verify.assembly import ModelParams, assemble_form
from r13verify.ellipticity import OperatorSpec
from r13verify.korn import (
    CHAIN_BLOCK,
    _korn_cache,
    coercivity_chain_check,
    div_right_inverse,
    korn_constant,
    korn_rayleigh,
    operator_kernel_dimension,
    scalar_div_right_inverse,
)
from r13verify.spaces import ScalarBasis, Sectors, build_spaces

from helpers import dense_korn_grams

SYM_VEC = OperatorSpec("vectors", "sym", 3)
STF_STF = OperatorSpec("stf2", "Stf", 3)
STF_STF_2D = OperatorSpec("stf2", "Stf", 2)
STF_VEC = OperatorSpec("vectors", "stf", 3)  # the C-elliptic control: the trace-free symmetrized gradient


@pytest.fixture(scope="module")
def sp2():
    return build_spaces(2, 1, "full")


def test_korn_constant_rayleigh_consistency(sp2):
    for op in (SYM_VEC, STF_STF):
        est = korn_constant(op, sp2.scalar)
        assert est.constant > 0
        ray = korn_rayleigh(op, sp2.scalar, est.extremizer)
        assert ray == pytest.approx(est.constant, rel=1e-9)
        assert est.sum_convention_bound == pytest.approx(np.sqrt(est.constant))


def test_korn_constant_nondecreasing_in_degree():
    prev = 0.0
    for N in (1, 2, 3):
        est = korn_constant(STF_STF, ScalarBasis(3, N, 1))
        assert np.isfinite(est.constant) and est.constant > 0
        assert est.constant >= prev - 1e-9
        prev = est.constant


def test_rigid_motion_satisfies_inequality(sp2):
    # v = W x + b with skew W: sym D v = 0, ratio stays below the constant
    sb = sp2.scalar
    W = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])
    b = np.array([0.3, -0.1, 0.7])
    coeffs = np.stack(
        [sb.project(lambda q, i=i: q @ W[i] + b[i]) for i in range(3)]
    )
    est = korn_constant(SYM_VEC, sb)
    ratio = korn_rayleigh(SYM_VEC, sb, coeffs.ravel())
    assert np.isfinite(ratio)
    assert ratio <= est.constant + 1e-9


def test_planar_korn_trend_reported():
    # d = 2 embedded fields: constants stay finite at fixed degree; the
    # missing complex ellipticity appears only as growth with N
    vals = []
    for N in (1, 2, 3):
        est = korn_constant(STF_STF_2D, ScalarBasis(2, N, 1))
        assert np.isfinite(est.constant)
        vals.append(est.constant)
    assert vals[0] < vals[-1]


def test_chain_zero_field(sp2):
    [rep] = coercivity_chain_check("heat", [np.zeros(3 * sp2.n_scalar)], sp2, ModelParams())
    assert rep.form_value == 0.0 and rep.lower_bound == 0.0
    assert rep.holds


def test_chain_heat_random_fields(sp2):
    rng = np.random.default_rng(0)
    params = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.1)
    fields = [rng.standard_normal((3, sp2.n_scalar)) for _ in range(20)]
    for rep in coercivity_chain_check("heat", fields, sp2, params):
        assert rep.holds
        assert rep.min_coefficient == pytest.approx(4.0 / 15.0)


def test_chain_stress_constant_sigma(sp2):
    # constant sigma, p = 0: Stf D sigma = 0 and the bound reduces to the
    # L2 mass term plus nonnegative boundary terms
    params = ModelParams(kn=1.0, chi_tilde=1.0, epsilon_w=0.0)
    sb = sp2.scalar
    one = sb.project(lambda q: np.ones(q.shape[0]))
    sig = np.zeros((5, sp2.n_scalar))
    sig[0] = one
    [rep] = coercivity_chain_check("stress", [(sig, np.zeros(sp2.n_p))], sp2, params)
    assert rep.holds
    assert rep.form_value >= 0.5 * 1.0  # (1/(2 Kn)) |sigma|^2 = 1/2
    assert rep.min_coefficient == pytest.approx(0.5)


def test_chain_stress_random_fields(sp2):
    rng = np.random.default_rng(1)
    params = ModelParams(kn=0.7, chi_tilde=1.3, epsilon_w=0.1)
    fields = [
        (rng.standard_normal((5, sp2.n_scalar)), rng.standard_normal(sp2.n_p)) for _ in range(20)
    ]
    for rep in coercivity_chain_check("stress", fields, sp2, params):
        assert rep.holds


def test_chain_batch_matches_single_fields(sp2):
    # the form, grams and Korn constant built once per call must not change
    # any per-field number
    rng = np.random.default_rng(5)
    params = ModelParams(kn=0.7, chi_tilde=1.3, epsilon_w=0.1)
    heat = [rng.standard_normal((3, sp2.n_scalar)) for _ in range(3)]
    stress = [(rng.standard_normal((5, sp2.n_scalar)), rng.standard_normal(sp2.n_p)) for _ in range(3)]
    for kind, fields in (("heat", heat), ("stress", stress)):
        batch = coercivity_chain_check(kind, fields, sp2, params)
        assert len(batch) == len(fields)
        assert batch == [coercivity_chain_check(kind, [f], sp2, params)[0] for f in fields]


def _chain_fields(sp, rng, count):
    heat = [rng.standard_normal((3, sp.n_scalar)) for _ in range(count)]
    stress = [(rng.standard_normal((5, sp.n_scalar)), rng.standard_normal(sp.n_p)) for _ in range(count)]
    return {"heat": heat, "stress": stress}


def test_chain_block_boundaries_match_single_fields_and_dense_oracle(sp2):
    # 2 blocks and a partial third: the fields on either side of a block edge
    # and the last, padded one keep the bits of a call of their own, and every
    # field's numbers are the dense forms' and grams'
    params = ModelParams(kn=0.7, chi_tilde=1.3, epsilon_w=0.1)
    count = 2 * CHAIN_BLOCK + 1
    A = assemble_form("A", sp2, params)
    vb = sp2.v_blocks
    for kind, fields in _chain_fields(sp2, np.random.default_rng(11), count).items():
        batch = coercivity_chain_check(kind, fields, sp2, params)
        assert len(batch) == count
        for i in (0, CHAIN_BLOCK - 1, CHAIN_BLOCK, count - 1):
            assert batch[i] == coercivity_chain_check(kind, [fields[i]], sp2, params)[0], (kind, i)
        op = SYM_VEC if kind == "heat" else STF_STF
        G_h1, G_l2, G_op = dense_korn_grams(op, sp2.scalar)
        korn = korn_constant(op, sp2.scalar).constant
        for rep, f in zip(batch, fields):
            U = np.zeros(sp2.n_V)
            if kind == "heat":
                U[vb["s"]] = f.ravel()
            else:
                U[vb["sigma"]], U[vb["p"]] = f[0].ravel(), f[1]
            x = np.ravel(f if kind == "heat" else f[0])
            want = (U @ A @ U, x @ (G_l2 + G_op) @ x, rep.min_coefficient / korn * (x @ G_h1 @ x))
            for got, w in zip((rep.form_value, rep.seminorm_sum, rep.korn_lower_bound), want):
                assert abs(got - w) <= 1e-12 * abs(w), (kind, got, w)
            assert rep.holds


def test_chain_carries_fields_in_column_blocks(sp2, monkeypatch):
    # the fields are carried to sector coordinates a block of columns at a time:
    # one carry of the whole V and one of the Korn field per block, never per field
    fields = _chain_fields(sp2, np.random.default_rng(12), 200)
    calls = []
    carry = Sectors.to_sectors
    monkeypatch.setattr(Sectors, "to_sectors", lambda self, x: calls.append(x.shape) or carry(self, x))
    for kind, batch in fields.items():
        calls.clear()
        assert len(coercivity_chain_check(kind, batch, sp2, ModelParams())) == 200
        assert len(calls) <= 2 * -(-200 // CHAIN_BLOCK), (kind, len(calls))


def test_chain_empty_field_list(sp2):
    for kind in ("heat", "stress"):
        assert coercivity_chain_check(kind, [], sp2, ModelParams()) == []


@pytest.mark.parametrize(
    "kind, make, message",
    [
        ("heat", lambda n, n_p: [np.ones((3, n)), np.ones(1)], r"heat field 1 has shape \(1,\)"),
        ("heat", lambda n, n_p: [np.ones((3, n + 1))], r"heat field 0 has shape \(3, {n1}\), expected \(3, {n}\)"),
        ("heat", lambda n, n_p: [np.ones(3 * n)] * 2 + [np.ones(3 * n + 1)], "heat field 2"),
        ("heat", lambda n, n_p: [np.ones((n, 3))], "heat field 0"),
        # the total length is right, so only the shapes tell it from a valid field
        (
            "stress",
            lambda n, n_p: [(np.ones((5, n)), np.ones(n_p)), (np.ones((5, n + 1)), np.ones(n_p - 5))],
            r"stress field 1 .* expected \(5, {n}\)",
        ),
        ("stress", lambda n, n_p: [(np.ones(5 * n), np.ones(n_p))], "stress field 0"),
        ("stress", lambda n, n_p: [(np.ones((4, n)), np.ones(n_p))], "stress field 0"),
        ("stress", lambda n, n_p: [(np.ones((5, n)), np.ones(n_p + 1))], r"stress field 0 .* \({n_p},\)"),
    ],
)
def test_chain_rejects_misshaped_fields(sp2, kind, make, message):
    n, n_p = sp2.n_scalar, sp2.n_p
    with pytest.raises(ValueError, match=message.format(n=n, n1=n + 1, n_p=n_p)):
        coercivity_chain_check(kind, make(n, n_p), sp2, ModelParams())


def test_chain_accepts_flattened_heat_fields(sp2):
    rng = np.random.default_rng(13)
    fields = [rng.standard_normal((3, sp2.n_scalar)) for _ in range(3)]
    flat = [f.ravel() for f in fields]
    params = ModelParams()
    assert coercivity_chain_check("heat", fields, sp2, params) == coercivity_chain_check("heat", flat, sp2, params)


def test_korn_rayleigh_rejects_zero_and_misshaped_vectors(sp2):
    n = sp2.n_scalar
    for op, size in ((SYM_VEC, 3 * n), (STF_STF, 5 * n)):
        with pytest.raises(ValueError, match="zero coefficient vector"):
            korn_rayleigh(op, sp2.scalar, np.zeros(size))
        for wrong in (size - 1, size + 1, 1):
            with pytest.raises(ValueError, match=f"has {wrong} entries"):
                korn_rayleigh(op, sp2.scalar, np.ones(wrong))
        assert np.isfinite(korn_rayleigh(op, sp2.scalar, np.ones(size)))


def test_right_inverse_zero_data(sp2):
    res = div_right_inverse(np.zeros((3, sp2.n_scalar)), "stf", sp2.scalar)
    assert res.tau_l2 == 0.0
    assert res.weak_residual < 1e-14


def test_right_inverse_identity_poisson(sp2):
    # full gradient: decoupled Poisson problems, weak identity exact on the
    # test space for data of degree <= N-1
    sb = sp2.scalar
    u = np.stack(
        [
            sb.project(lambda q: q[:, 0]),
            sb.project(lambda q: 1.0 - q[:, 1]),
            np.zeros(sp2.n_scalar),
        ]
    )
    res = div_right_inverse(u, "identity", sb)
    assert res.weak_residual <= 1e-10
    assert res.energy_gap <= 1e-10
    assert res.range_residual <= 1e-13
    assert res.tau.shape == (sb.weights.size, 3, 3)
    assert res.potential.shape == (3, sp2.degree**3)


def test_right_inverse_stf_constant_data():
    # ratios carry an odd-even staircase at the lowest degrees; the sweep
    # starts where the bubble space resolves both parities
    prev = None
    for N in (3, 4):
        sb = ScalarBasis(3, N, 1)
        u = np.zeros((3, sb.n))
        u[0] = sb.project(lambda q: np.ones(q.shape[0]))
        res = div_right_inverse(u, "stf", sb)
        assert res.weak_residual <= 1e-10
        assert res.range_residual <= 1e-13
        assert res.energy_gap <= 1e-10
        if prev is not None:
            assert abs(res.bound_ratio - prev) <= 0.2 * prev
        prev = res.bound_ratio


def test_right_inverse_rejects_non_elliptic(sp2):
    with pytest.raises(ValueError, match="not elliptic"):
        div_right_inverse(np.zeros((3, sp2.n_scalar)), "skew", sp2.scalar)


def test_scalar_right_inverse(sp2):
    sb = sp2.scalar
    kappa = sb.project(lambda q: 1.0 + q[:, 0])
    res = scalar_div_right_inverse(kappa, sb)
    assert res.weak_residual <= 1e-10
    assert res.energy_gap <= 1e-10
    assert res.bound_ratio > 0
    # a vector field at the volume points from a scalar potential on the
    # degree-(N+1) bubble space, which has N^3 functions
    assert res.tau.shape == (sb.weights.size, 3)
    assert res.potential.shape == (sp2.degree**3,)
    assert res.range_residual == 0.0


def test_scalar_right_inverse_stability():
    ratios = []
    for N in (3, 4):
        sb = ScalarBasis(3, N, 1)
        kappa = sb.project(lambda q: 1.0 + q[:, 0])
        ratios.append(scalar_div_right_inverse(kappa, sb).bound_ratio)
    assert abs(ratios[1] - ratios[0]) <= 0.2 * ratios[0]


def test_korn_constant_rejects_unsupported_operator(sp2):
    with pytest.raises(ValueError, match="unsupported operator"):
        korn_constant(OperatorSpec("vectors", "dev", 3), sp2.scalar)


def test_scalar_right_inverse_zero_data(sp2):
    res = scalar_div_right_inverse(np.zeros(sp2.n_scalar), sp2.scalar)
    assert res.tau_l2 == 0.0
    assert res.weak_residual < 1e-14


def test_korn_sym_vec_degree1_analytic_value():
    # at N = 1 the extremizer is a centered rigid motion: for a unit skew
    # pair W, |W|_F^2 = 2 and int |W(x - c)|^2 over the cube is 2/12, so
    # the quotient is 1 + 2/(1/6) = 13 exactly
    est = korn_constant(SYM_VEC, ScalarBasis(3, 1, 1))
    assert est.constant == pytest.approx(13.0, rel=1e-9)
    sb = ScalarBasis(3, 1, 1)
    W = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    coeffs = np.stack([sb.project(lambda q, i=i: (q - 0.5) @ W[i]) for i in range(3)])
    assert korn_rayleigh(SYM_VEC, sb, coeffs.ravel()) == pytest.approx(
        est.constant, rel=1e-12
    )


def test_right_inverse_lowest_degree():
    # N = 1 pairs with a single-bubble auxiliary space per direction
    sb = ScalarBasis(3, 1, 1)
    u = np.zeros((3, sb.n))
    u[1] = sb.project(lambda q: np.ones(q.shape[0]))
    res = div_right_inverse(u, "sym", sb)
    assert res.weak_residual <= 1e-10
    assert res.energy_gap <= 1e-10
    assert np.isfinite(res.bound_ratio) and res.bound_ratio > 0


def test_operator_kernel_dimension_dichotomy():
    # symmetrized gradient: exactly the 6 rigid motions at every degree
    for N in (1, 2, 3):
        assert operator_kernel_dimension(SYM_VEC, ScalarBasis(3, N, 1)) == 6
    # stf gradient on stf fields, d = 3: finite kernel, saturates at 35
    dims3 = [operator_kernel_dimension(STF_STF, ScalarBasis(3, N, 1)) for N in (3, 4, 5)]
    assert dims3[1] == dims3[2] == 35
    assert dims3[0] < 35
    # planar case: no saturation, the kernel grows as 2N + 2
    dims2 = [operator_kernel_dimension(STF_STF_2D, ScalarBasis(2, N, 1)) for N in (1, 2, 3, 4, 5)]
    assert dims2 == [2 * N + 2 for N in (1, 2, 3, 4, 5)]
    # the C-elliptic control saturates at the 10 conformal Killing fields in 3D; its planar
    # counterpart is the Cauchy-Riemann operator, whose kernel grows as 2N + 2 as well
    assert [operator_kernel_dimension(STF_VEC, ScalarBasis(3, N, 1)) for N in (1, 2, 3, 4)] == [7, 10, 10, 10]
    planar_control = OperatorSpec("vectors", "stf", 2)
    assert [operator_kernel_dimension(planar_control, ScalarBasis(2, N, 1)) for N in (1, 2, 3, 4)] == [4, 6, 8, 10]
    # the sector counts sum to the count of the whole dense gram, cut at the same level
    for op, N in ((SYM_VEC, 2), (STF_STF, 4), (STF_STF_2D, 3)):
        sb = ScalarBasis(op.dim, N, 1)
        vals = np.linalg.eigvalsh(dense_korn_grams(op, sb)[2])
        assert operator_kernel_dimension(op, sb) == np.sum(vals < 1e-10 * max(vals[-1], 1.0))


def _dense(op, sb):
    """The korn module's orbit grams of op on sb as whole matrices in field coordinates: each
    orbit's block on every sector of the orbit, carried back on both sides (assembly._scatter)."""
    from r13verify.assembly import _scatter
    from r13verify.korn import _korn_grams

    S, h1, lower = _korn_grams(op, sb)
    whole = [slice(0, len(B)) for B in h1]  # each orbit block spans a whole sector
    return [_scatter([(B, o, whole[o], whole[o]) for o, B in enumerate(blocks)], S, S) for blocks in (h1, lower)]


@pytest.mark.parametrize(
    "op, degrees",
    [
        (SYM_VEC, (1, 2, 3, 4, 5)),
        (STF_STF, (1, 2, 3, 4, 5)),
        (STF_STF_2D, (1, 2, 3, 4)),
        (STF_VEC, (1, 2, 3, 4, 5)),
    ],
)
def test_sector_korn_grams_match_dense_kronecker_oracle(op, degrees):
    # the grams commute with the mirrors and the axis swaps: their orbit blocks,
    # scattered back, are the whole dense Kronecker grams, off-sector entries included
    for N in degrees:
        sb = ScalarBasis(op.dim, N, 1)
        G_h1, G_l2, G_op = dense_korn_grams(op, sb)
        h1, lower = _dense(op, sb)
        for got, want in ((h1, G_h1), (lower, G_l2 + G_op)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (op, N)


@pytest.mark.parametrize("op", [SYM_VEC, STF_STF, STF_STF_2D, STF_VEC])
def test_sector_korn_constant_matches_dense_pencil(op):
    import scipy.linalg as sla

    for N in (1, 2, 3):
        sb = ScalarBasis(op.dim, N, 1)
        G_h1, G_l2, G_op = dense_korn_grams(op, sb)
        want = sla.eigh(G_h1, G_l2 + G_op, eigvals_only=True)[-1]
        est = korn_constant(op, sb)
        assert abs(est.constant - want) <= 1e-12 * want
        # the extremizer, scattered back from its sector, attains it on the dense pencil
        x = est.extremizer
        assert abs((x @ G_h1 @ x) / (x @ (G_l2 + G_op) @ x) - want) <= 1e-12 * want
        assert korn_rayleigh(op, sb, x) == pytest.approx(est.constant, rel=1e-12)


def test_the_carry_is_built_on_first_use():
    # the kernel count reads the Korn field's Sectors but carries no vector, so
    # it leaves their carry unbuilt; the first carried vector builds it, once
    sb = ScalarBasis(3, 2, 1)
    assert operator_kernel_dimension(STF_STF, sb) > 0
    S = _korn_cache(STF_STF, sb)["sectors"]
    assert "_carry" not in vars(S)
    korn_rayleigh(STF_STF, sb, np.ones(S.order.size))
    carry = vars(S)["_carry"]
    korn_rayleigh(STF_STF, sb, np.arange(S.order.size, dtype=float))
    assert vars(S)["_carry"] is carry


@pytest.mark.parametrize("op", [SYM_VEC, STF_STF, STF_STF_2D])
def test_orbit_pencils_hold_every_sector_spectrum(op):
    # the pencils assembled per sector in the swap-free reference layout: every
    # sector of an orbit has its representative's spectrum, so the constant over
    # the orbits is the maximum over all sectors, and the kernel count weighted
    # by orbit size is the per-sector count
    import scipy.linalg as sla
    from r13verify.assembly import _gradient_terms, _norm_terms, _sector_assemble
    from r13verify.korn import KERNEL_EIG_RTOL, _korn_grams

    for N in (1, 2, 3, 4):
        sb = ScalarBasis(op.dim, N, 1)
        S, h1, lower = _korn_grams(op, sb)
        plain, count = Sectors(S.fields), len(S.fields)
        terms = (_norm_terms(count, True, op.dim), _gradient_terms(op, 1.0, _norm_terms(count, False, op.dim)))
        sector_h1, sector_lower = (_sector_assemble(t, plain, plain, {}) for t in terms)
        by_sector = [sla.eigh(a, b, eigvals_only=True) for a, b in zip(sector_h1, sector_lower)]
        for orbit, a, b in zip(S.orbits, h1, lower):
            want = sla.eigh(a, b, eigvals_only=True)
            for s in orbit:
                assert np.abs(by_sector[s] - want).max() <= 1e-12 * want[-1], (op, N, s)
        top = max(v[-1] for v in by_sector)
        assert abs(korn_constant(op, sb).constant - top) <= 1e-13 * top, (op, N)
        grams = [np.linalg.eigvalsh(G) for G in _sector_assemble(_gradient_terms(op, 1.0, {}), plain, plain, {})]
        cut = KERNEL_EIG_RTOL * max(max(v[-1] for v in grams), 1.0)
        assert operator_kernel_dimension(op, sb) == sum(int(np.sum(v < cut)) for v in grams), (op, N)


@pytest.mark.parametrize("N", [1, 2])
def test_enriched_helpers_read_the_scalar_degree(N):
    # enriched (N, 1) expands sigma and s on the degree-(N+1) basis of equal (N+1, 1),
    # on the same quadrature; the Korn and right-inverse helpers take that basis,
    # so both spaces' `scalar` give the same bits
    enriched, equal = build_spaces(N, 1, "full", "enriched"), build_spaces(N + 1, 1, "full")
    for op in (SYM_VEC, STF_STF, STF_VEC):
        a, b = korn_constant(op, enriched.scalar), korn_constant(op, equal.scalar)
        assert a.degree == b.degree == N + 1
        assert a.constant == b.constant and np.array_equal(a.extremizer, b.extremizer)
    rng = np.random.default_rng(N)
    u, kappa = rng.standard_normal((3, equal.n_scalar)), rng.standard_normal(equal.n_scalar)
    results = [
        (div_right_inverse(u, "stf", sb), div_right_inverse(u, "sym", sb), scalar_div_right_inverse(kappa, sb))
        for sb in (enriched.scalar, equal.scalar)
    ]
    for a, b in zip(*results):
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_korn_grams_built_once_per_operator_and_spaces():
    # korn_constant and korn_rayleigh on one basis share one gram build, kept in the
    # basis's cache under the operator; the spaces hold no Korn data
    from r13verify.korn import _korn_grams

    sp = build_spaces(2, 1, "full")
    est = korn_constant(STF_STF, sp.scalar)
    grams = _korn_grams(STF_STF, sp.scalar)
    korn_rayleigh(STF_STF, sp.scalar, est.extremizer)
    assert _korn_grams(STF_STF, sp.scalar) is grams
    assert [key for key in sp.scalar._cache if "korn" in key] == [("korn", STF_STF)]
    assert not hasattr(sp, "korn")


def test_korn_estimate_made_once_per_operator_and_spaces(monkeypatch):
    # the estimate is kept beside the grams, its extremizer read-only; later calls and
    # the coercivity chain read it instead of solving the pencils again
    import scipy.linalg as sla

    heat = [np.random.default_rng(7).standard_normal((3, build_spaces(2, 1, "full").n_scalar))]
    ref = coercivity_chain_check("heat", heat, build_spaces(2, 1, "full"), ModelParams())
    sp = build_spaces(2, 1, "full")
    est = korn_constant(SYM_VEC, sp.scalar)
    assert not est.extremizer.flags.writeable
    with pytest.raises(ValueError):
        est.extremizer[0] = 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("pencils solved again")

    monkeypatch.setattr(sla, "eigh", refuse)
    assert korn_constant(SYM_VEC, sp.scalar) is est
    assert coercivity_chain_check("heat", heat, sp, ModelParams()) == ref


@pytest.mark.parametrize("op", [SYM_VEC, STF_STF, STF_STF_2D, STF_VEC])
def test_korn_helpers_reject_a_basis_of_another_dimension(op):
    sb = ScalarBasis(5 - op.dim, 1, 1)
    for call in (korn_constant, operator_kernel_dimension):
        with pytest.raises(ValueError, match=f"operator of dim {op.dim} on a basis of dim {sb.dim}"):
            call(op, sb)
    with pytest.raises(ValueError, match="on a basis of dim"):
        korn_rayleigh(op, sb, np.ones(sb.n))
    assert sb._cache == {}  # nothing was built on it
