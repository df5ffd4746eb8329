"""Kernel tests: projections, reflections, the SVD oracle, and reference
solutions, checked against hand values, extended precision, and numpy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdr_lab.linalg import (
    Matrix,
    as_matrix,
    projected_solution,
    rank_threshold,
    reflect_row,
    spectral_scalars,
    svd_small,
)


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------


def test_matrix_caches_row_norms():
    arr = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, -1.0]])
    mat = Matrix(arr)
    assert mat.shape == (3, 2)
    np.testing.assert_allclose(mat.row_norms_sq, [25.0, 0.0, 2.0], rtol=1e-12)
    assert abs(mat.frob_sq - mat.row_norms_sq.sum()) <= 1e-12 * mat.frob_sq
    assert mat.zero_rows == [1]
    np.testing.assert_allclose(mat.col_norms_sq, [10.0, 17.0], rtol=1e-12)


def test_matrix_row_norms_match_recompute():
    arr = _rng(0).standard_normal((17, 9))
    mat = Matrix(arr)
    for i in range(17):
        ref = float(arr[i] @ arr[i])
        assert abs(mat.row_norms_sq[i] - ref) <= 1e-12 * ref


def test_matrix_entries_frozen():
    mat = Matrix(np.eye(3))
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 5.0


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="invalid matrix"):
        Matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="invalid matrix"):
        Matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="invalid matrix"):
        Matrix(np.ones(4))


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


def test_reflect_hand_case():
    y = reflect_row(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 0.0)
    np.testing.assert_allclose(y, [-3.0, 4.0], atol=1e-15)


def test_reflect_is_double_projection():
    rng = _rng(3)
    for _ in range(100):
        a = rng.standard_normal(6)
        x = rng.standard_normal(6)
        b = float(rng.standard_normal())
        lhs = reflect_row(x, a, b) + x
        rhs = 2.0 * (x - ((a @ x - b) / (a @ a)) * a)  # twice the projection
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())


def test_degenerate_hyperplane():
    with pytest.raises(ValueError, match="degenerate hyperplane"):
        reflect_row(np.ones(3), np.zeros(3), 1.0)


_coords = st.floats(min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_coords, min_size=4, max_size=4),
       st.lists(_coords, min_size=4, max_size=4), _coords)
def test_reflection_involution_property(xs, as_, b):
    a = np.array(as_)
    if float(a @ a) < 1e-6:
        return
    x = np.array(xs)
    back = reflect_row(reflect_row(x, a, b), a, b)
    assert np.abs(back - x).max() <= 1e-10 * (1.0 + np.abs(x).max())


@settings(max_examples=200, deadline=None)
@given(st.lists(_coords, min_size=4, max_size=4),
       st.lists(_coords, min_size=4, max_size=4),
       st.lists(_coords, min_size=4, max_size=4), _coords)
def test_reflection_isometry_property(xs, as_, ts, b):
    a = np.array(as_)
    nsq = float(a @ a)
    if nsq < 1e-6:
        return
    x = np.array(xs)
    # point on the hyperplane: closest point to origin plus a tangent move
    t = np.array(ts)
    x_star = (b / nsq) * a + (t - ((a @ t) / nsq) * a)
    d0 = np.linalg.norm(x - x_star)
    d1 = np.linalg.norm(reflect_row(x, a, b) - x_star)
    assert abs(d1 - d0) <= 1e-10 * (1.0 + d0)


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------


def test_svd_identity():
    res = svd_small(Matrix(np.eye(3)))
    np.testing.assert_allclose(res.singular_values, [1.0, 1.0, 1.0], atol=1e-14)
    assert res.rank == 3


def test_svd_singular_diag():
    res = svd_small(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(res.singular_values, [2.0, 0.0], atol=1e-14)
    assert res.rank == 1


def _check_svd(arr):
    res = svd_small(arr)
    m, n = arr.shape
    k = min(m, n)
    sig = res.singular_values
    assert sig.shape == (k,)
    assert res.U.shape == (m, k)
    assert res.V.shape == (n, n)
    assert np.all(sig >= 0.0)
    assert np.all(np.diff(sig) <= 1e-14 * (sig[0] if sig.size else 1.0))
    smat = np.zeros((k, n))
    np.fill_diagonal(smat, sig)
    frob = np.linalg.norm(arr)
    assert np.linalg.norm(res.U @ smat @ res.V.T - arr) <= 1e-10 * max(1.0, frob)
    assert np.linalg.norm(res.U.T @ res.U - np.eye(k)) <= 1e-10
    assert np.linalg.norm(res.V.T @ res.V - np.eye(n)) <= 1e-10
    # singular values against an independent implementation
    ref = np.linalg.svd(arr, compute_uv=False)
    assert np.abs(sig - ref).max() <= 1e-10 * max(1.0, ref[0] if ref.size else 1.0)
    assert res.rank == int(np.sum(sig > rank_threshold(sig[0] if sig.size else 0.0, m, n)))


def test_svd_random_instances():
    # reconstruction, orthogonality, and agreement with numpy on 120 matrices
    rng = _rng(11)
    for trial in range(120):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 21))
        arr = rng.standard_normal((m, n))
        if trial % 4 == 0 and min(m, n) >= 2:
            # force rank deficiency
            k = min(m, n) // 2 + 1
            arr = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        if trial % 7 == 0:
            arr[rng.integers(m)] = 0.0
        _check_svd(arr)


def test_svd_tiny_singular_value_rank():
    res = svd_small(np.diag([1.0, 1e-20]))
    assert res.rank == 1


def test_svd_stored_on_matrix():
    mat = Matrix(_rng(3).standard_normal((6, 4)))
    res = svd_small(mat)
    assert svd_small(mat) is res
    assert spectral_scalars(mat).sigma_min == res.singular_values[res.rank - 1]
    for factor in (res.U, res.singular_values, res.V):
        with pytest.raises(ValueError):
            factor[0] = 0.0


# ---------------------------------------------------------------------------
# spectral scalars
# ---------------------------------------------------------------------------


def test_spectral_scalars_identity():
    s = spectral_scalars(Matrix(np.eye(4)))
    assert s.sigma_min == pytest.approx(1.0, abs=1e-12)
    assert s.sigma_max == pytest.approx(1.0, abs=1e-12)
    assert s.frob_sq == pytest.approx(4.0, rel=1e-12)
    assert s.rank == 4


def test_spectral_scalars_rank_one():
    u = np.array([1.0, 2.0, -2.0])
    v = np.array([3.0, 4.0])
    s = spectral_scalars(np.outer(u, v))
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert s.sigma_min == pytest.approx(expected, rel=1e-12)
    assert s.sigma_max == pytest.approx(expected, rel=1e-12)
    assert s.rank == 1
    assert s.sigma_max ** 2 <= s.frob_sq * (1.0 + 1e-12)


def test_spectral_scalars_zero_matrix():
    with pytest.raises(ValueError, match="zero matrix"):
        spectral_scalars(np.zeros((3, 2)))


def test_spectral_scalars_same_for_array_and_matrix():
    # an array is read as a Matrix, so frob_sq is the sum of the row norms
    # either way, to the last bit
    rng = _rng(11)
    for _ in range(40):
        arr = rng.standard_normal(tuple(rng.integers(1, 30, size=2)))
        mat = Matrix(arr)
        assert spectral_scalars(arr) == spectral_scalars(mat)
        assert spectral_scalars(arr).frob_sq == mat.frob_sq


def test_as_matrix_keeps_a_matrix_and_checks_an_array():
    mat = Matrix(np.eye(2))
    assert as_matrix(mat) is mat
    assert as_matrix([[1.0, 2.0]]).shape == (1, 2)
    for bad, msg in ((np.zeros(3), "expected a nonempty 2-d array"),
                     ([[np.nan]], "non-finite entries")):
        for fn in (as_matrix, svd_small, spectral_scalars):
            with pytest.raises(ValueError, match="invalid matrix: " + msg):
                fn(bad)


# ---------------------------------------------------------------------------
# projected solution
# ---------------------------------------------------------------------------


def test_projected_solution_identity():
    b = np.array([1.5, -2.0, 0.25])
    out = projected_solution(np.eye(3), b, np.array([9.0, 9.0, 9.0]))
    np.testing.assert_allclose(out, b, atol=1e-12)


def test_projected_solution_least_norm_from_zero():
    rng = _rng(5)
    arr = rng.standard_normal((8, 5))
    x_true = rng.standard_normal(5)
    b = arr @ x_true
    out = projected_solution(arr, b, np.zeros(5))
    ref, *_ = np.linalg.lstsq(arr, b, rcond=None)
    np.testing.assert_allclose(out, ref, atol=1e-9)


def test_projected_solution_rank_deficient():
    rng = _rng(6)
    arr = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))  # rank 2
    x_any = rng.standard_normal(3)
    b = arr @ x_any
    x0 = rng.standard_normal(3)
    out = projected_solution(arr, b, x0)
    pinv = np.linalg.pinv(arr)
    ref = pinv @ b + (np.eye(3) - pinv @ arr) @ x0
    np.testing.assert_allclose(out, ref, atol=1e-9)
    bnorm = np.linalg.norm(b)
    assert np.linalg.norm(arr @ out - b) <= 1e-8 * (1.0 + bnorm)
    # the move from x0 stays inside the row space
    _, _, vt = np.linalg.svd(arr)
    null_basis = vt[2:].T
    assert np.abs(null_basis.T @ (out - x0)).max() <= 1e-10


def test_projected_solution_inconsistent():
    arr = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="inconsistent system"):
        projected_solution(arr, np.array([1.0, 2.0]), np.zeros(2))


def test_projected_solution_rejects_nan_b():
    # a nan residual norm is not > tol, so this once returned [nan, nan]
    with pytest.raises(ValueError, match="inconsistent system"):
        projected_solution(np.eye(2), np.array([1.0, np.nan]), np.zeros(2))


def test_projected_solution_on_a_zero_matrix():
    # rank 0: the solution set is everything when b = 0, and empty otherwise
    x0 = np.array([3.0, -1.5])
    out = projected_solution(np.zeros((3, 2)), np.zeros(3), x0)
    np.testing.assert_array_equal(out, x0)
    with pytest.raises(ValueError, match="inconsistent system"):
        projected_solution(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]), x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projected_solution_rejects_a_non_finite_start(bad):
    # a nan start once returned [nan, nan], and an inf one raised a
    # RuntimeWarning from inf - inf
    with pytest.raises(ValueError, match="invalid start point"):
        projected_solution(np.eye(2), np.ones(2), np.array([bad, 0.0]))
