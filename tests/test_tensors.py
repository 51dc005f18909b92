import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from r13verify.tensors import (
    Frame,
    frame_components,
    frame_components3,
    project2,
    project3,
    projection_matrix2,
    projection_matrix3,
    stf_basis,
    sym3,
)

from helpers import random_stf2, stf_gradient_symbol_direct, sym3_direct

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
rank2_3d = arrays(np.float64, (3, 3), elements=finite)
rank3_3d = arrays(np.float64, (3, 3, 3), elements=finite)


def test_stf_of_identity_is_zero():
    assert_allclose(project2(np.eye(3), "stf"), np.zeros((3, 3)), atol=1e-15)


def test_stf_of_offdiagonal_dyad():
    M = np.outer([1.0, 0, 0], [0, 1.0, 0])
    expected = 0.5 * (M + M.T)
    assert_allclose(project2(M, "stf"), expected, atol=1e-15)


def test_stf_projection_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        M = rng.standard_normal((3, 3))
        S = project2(M, "stf")
        assert abs(np.sum(S * (M - S))) < 1e-13


@given(rank2_3d, st.sampled_from(["sym", "dev", "stf"]))
@settings(max_examples=60, deadline=None)
def test_project2_idempotent(M, kind):
    P = project2(M, kind)
    assert_allclose(project2(P, kind), P, atol=1e-13)


@given(rank2_3d)
@settings(max_examples=60, deadline=None)
def test_project2_tracefree(M):
    assert abs(np.trace(project2(M, "dev"))) < 1e-13
    assert abs(np.trace(project2(M, "stf"))) < 1e-13


@given(rank2_3d)
@settings(max_examples=60, deadline=None)
def test_pythagoras_rank2(M):
    stf = project2(M, "stf")
    skew = 0.5 * (M - M.T)
    sph = (np.trace(M) / 3) * np.eye(3)
    lhs = np.sum(M * M)
    rhs = np.sum(stf * stf) + np.sum(skew * skew) + np.sum(sph * sph)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def test_stf3_kills_spherical_dyads():
    # a * (identity tensor outer xi) lies in the kernel of the rank-3 stf part
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal()
        xi = rng.standard_normal(3)
        T = a * np.einsum("ij,k->ijk", np.eye(3), xi)
        assert_allclose(project3(T, "Stf"), np.zeros((3, 3, 3)), atol=1e-13)


@given(rank3_3d)
@settings(max_examples=60, deadline=None)
def test_sym3_fixes_symmetric_input(T):
    Z = sym3(T)
    assert_allclose(project3(Z, "Sym"), Z, atol=1e-13)
    assert_allclose(Z, sym3_direct(T), atol=1e-13)


@given(rank3_3d, st.sampled_from(["Sym", "Stf"]))
@settings(max_examples=60, deadline=None)
def test_project3_idempotent(T, kind):
    P = project3(T, kind)
    assert_allclose(project3(P, kind), P, atol=1e-12)


def test_project3_dev_idempotent_on_symmetric_input():
    # Dev subtracts three distinct trace vectors; it is a projection on
    # the fully symmetric subspace, where the traces coincide.
    rng = np.random.default_rng(2)
    T = sym3(rng.standard_normal((3, 3, 3)))
    D = project3(T, "Dev")
    assert_allclose(project3(D, "Dev"), D, atol=1e-13)


def test_stf3_traces_vanish():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        T = rng.standard_normal((d, d, d))
        S = project3(T, "Stf")
        for sub in ("ill->i", "lil->i", "lli->i"):
            assert_allclose(np.einsum(sub, S), np.zeros(d), atol=1e-13)


def test_stf3_range_dimension():
    P = projection_matrix3("Stf", 3)
    assert P.shape == (27, 27)
    assert np.linalg.matrix_rank(P, tol=1e-10) == 7


def test_stf3_matches_symbol_formula_on_dyads():
    # Stf(S otimes xi) for stf S agrees entrywise with the loop evaluator.
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        for _ in range(5):
            S = random_stf2(rng, d)
            xi = rng.standard_normal(d)
            T = np.einsum("ij,k->ijk", S, xi)
            assert_allclose(project3(T, "Stf"), stf_gradient_symbol_direct(S, xi), atol=1e-13)


def test_projection_matrix_is_shared_read_only():
    # built once per (kind, d) and handed to every caller, so no caller may
    # write into it
    P = projection_matrix3("Stf", 3)
    assert projection_matrix3("Stf", 3) is P
    with pytest.raises(ValueError):
        P[0, 0] = 1.0


def test_projection_matrix2_orthogonal_projector():
    for kind in ("sym", "dev", "stf"):
        P = projection_matrix2(kind, 3)
        assert_allclose(P @ P, P, atol=1e-13)
        assert_allclose(P, P.T, atol=1e-13)


@pytest.mark.parametrize("rank,d,expected", [(2, 3, 5), (2, 2, 2), (2, 4, 9), (3, 3, 7), (3, 2, 2)])
def test_stf_basis_count(rank, d, expected):
    B = stf_basis(rank, d)
    assert B.shape[0] == expected


def test_stf_basis_orthonormal():
    for rank, d in [(2, 2), (2, 3), (3, 3)]:
        B = stf_basis(rank, d)
        flat = B.reshape(B.shape[0], -1)
        assert_allclose(flat @ flat.T, np.eye(B.shape[0]), atol=1e-13)


def test_stf_basis_reproducible():
    a = stf_basis(2, 3)
    b = stf_basis(2, 3)
    assert np.array_equal(a, b)


def canonical_frame():
    return Frame(n=np.array([0.0, 0, 1]), t1=np.array([1.0, 0, 0]), t2=np.array([0.0, 1, 0]))


def test_frame_components_diag():
    sigma = np.diag([1.0, 2.0, -3.0])
    comps = frame_components(sigma, canonical_frame())
    assert comps["nn"] == pytest.approx(-3.0)
    assert comps["t1t1"] == pytest.approx(1.0)
    assert comps["t1t2"] == pytest.approx(0.0)


def test_frame_components_vector():
    fr = canonical_frame()
    comps = frame_components(fr.n, fr)
    assert comps["n"] == pytest.approx(1.0)
    assert comps["t1"] == pytest.approx(0.0)
    assert comps["t2"] == pytest.approx(0.0)


def test_frame_trace_invariance():
    # For stf sigma the three diagonal frame components sum to zero.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    fr = Frame(n=q[:, 2], t1=q[:, 0], t2=q[:, 1])
    for _ in range(20):
        sigma = random_stf2(rng)
        comps = frame_components(sigma, fr)
        assert abs(comps["nn"] + comps["t1t1"] + comps["t2t2"]) < 1e-13


def test_invalid_frame_rejected():
    with pytest.raises(ValueError, match="invalid frame"):
        Frame(n=np.array([1.0, 0, 0]), t1=np.array([1.0, 0, 0]), t2=np.array([0.0, 0, 1]))
    with pytest.raises(ValueError, match="invalid frame"):
        # orthonormal but left-handed
        Frame(n=np.array([0.0, 0, 1]), t1=np.array([0.0, 1, 0]), t2=np.array([1.0, 0, 0]))


def test_frame_components3_symmetry():
    rng = np.random.default_rng(6)
    T = sym3(rng.standard_normal((3, 3, 3)))
    fr = canonical_frame()
    comps = frame_components3(T, fr)
    assert comps["nnn"] == pytest.approx(T[2, 2, 2])
    assert comps["nnt1"] == pytest.approx(T[2, 2, 0])
