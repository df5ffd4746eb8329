"""Problem construction tests: synthetic generators, Matrix Market I/O,
consensus graphs, and the special geometries."""

import math

import numpy as np
import pytest

from rdr_lab.linalg import Matrix, reflect_row, spectral_scalars, svd_small
from rdr_lab.problems import (
    GEOMETRIC_RETRIES,
    GraphSpec,
    Problem,
    build_graph,
    conditioned_problem,
    default_geometric_radius,
    gen_ac_problem,
    gen_conditioned,
    gen_direction_adversarial,
    gen_gaussian,
    gen_solution,
    load_matrix_market,
    mtx_problem,
    read_matrix_market,
    synthetic_problem,
    three_lines_failure_problem,
    write_matrix_market,
)
from rdr_lab.sampling import Rng


# ---------------------------------------------------------------------------
# Problem bundle
# ---------------------------------------------------------------------------


def test_problem_rejects_inconsistent_b():
    A = Matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="inconsistent system"):
        Problem(A=A, b=np.array([0.0, 1.0]), x_star=np.zeros(2),
                x0=np.zeros(2), x0_star=np.zeros(2))


@pytest.mark.parametrize("name", ["b", "x_star"])
def test_problem_rejects_nan_in_b_or_x_star(name):
    # a nan residual norm is not > tol, so this once passed, and rk then
    # ended numerical-divergence at k = 1 with a nan RSE
    vectors = {"b": np.ones(2), "x_star": np.ones(2), name: np.array([1.0, np.nan])}
    with pytest.raises(ValueError, match="inconsistent system"):
        Problem(A=Matrix(np.eye(2)), x0=np.zeros(2), x0_star=np.ones(2), **vectors)


def test_problem_takes_an_array_as_its_matrix():
    # as every other entry point does (linalg.as_matrix); an array once
    # failed on A.frob_sq
    problem = Problem(A=np.eye(2), b=np.ones(2), x_star=np.ones(2),
                      x0=np.zeros(2), x0_star=np.ones(2))
    assert isinstance(problem.A, Matrix)
    np.testing.assert_array_equal(problem.A.entries, np.eye(2))


def test_problem_rejects_start_error_that_overflows():
    # |x0 - x0_star|^2 = 1e310 once made every run end numerical-divergence
    # at k = 1, with nan RSE and RuntimeWarnings, though nothing diverged
    A = Matrix(np.eye(2))
    x0_star = np.array([1e155, 0.0])
    with pytest.raises(ValueError, match="invalid start point"):
        Problem(A=A, b=x0_star, x_star=x0_star, x0=np.zeros(2), x0_star=x0_star)
    for x0 in (np.array([np.nan, 0.0]), np.array([-1e308, 0.0])):
        with pytest.raises(ValueError, match="invalid start point"):
            Problem(A=A, b=np.array([1e308, 0.0]), x_star=np.array([1e308, 0.0]),
                    x0=x0, x0_star=np.array([1e308, 0.0]))
    x0_star = np.array([1e153, 0.0])  # |x0 - x0_star|^2 = 1e306 is finite
    Problem(A=A, b=x0_star, x_star=x0_star, x0=np.zeros(2), x0_star=x0_star)


def test_problem_consistency_invariant():
    for seed in (0, 1, 2):
        p = synthetic_problem(30, 12, seed)
        bnorm = np.linalg.norm(p.b)
        assert np.linalg.norm(p.A.entries @ p.x_star - p.b) <= 1e-10 * (1.0 + bnorm)
        assert np.linalg.norm(p.A.entries @ p.x0_star - p.b) <= 1e-9 * (1.0 + bnorm)


def test_problem_samplers_cached():
    p = synthetic_problem(10, 4, 0)
    assert p.row_sampler is p.row_sampler
    np.testing.assert_allclose(p.row_sampler.total, p.A.frob_sq, rtol=1e-12)
    np.testing.assert_allclose(p.col_sampler.total, p.A.col_norms_sq.sum(), rtol=1e-12)


# ---------------------------------------------------------------------------
# Gaussian generator
# ---------------------------------------------------------------------------


def test_gen_gaussian_golden():
    np.testing.assert_array_equal(
        gen_gaussian(2, 3, 7).entries,
        [[0.0012301533574825742, 0.2987455375084699, -0.2741378553622176],
         [-0.8905918387572742, -0.45467078517172255, -0.9916465549964624]])


def test_gen_gaussian_moments():
    entries = gen_gaussian(1000, 1000, 31).entries
    assert abs(entries.mean()) <= 3.0 / math.sqrt(1e6)
    assert abs(entries.var() - 1.0) <= 0.01


def test_gen_gaussian_rejects_empty():
    with pytest.raises(ValueError, match="invalid matrix"):
        gen_gaussian(0, 3, 0)


# ---------------------------------------------------------------------------
# spectrum shaping
# ---------------------------------------------------------------------------


def test_gen_conditioned_hits_target():
    M = gen_conditioned(100, 50, 5000.0, seed=8)
    s = spectral_scalars(M)
    ratio = s.frob_sq / s.sigma_min ** 2
    assert abs(ratio - 5000.0) <= 0.01 * 5000.0


def test_gen_conditioned_twenty_random_triples():
    meta = Rng(2718)
    for t in range(20):
        n = 2 + meta.integer(8)
        m = n + meta.integer(12)
        target = n * (1.0 + 9.0 * meta.uniform())
        M = gen_conditioned(m, n, target, seed=meta.child(100 + t).seed)
        s = spectral_scalars(M)
        ratio = s.frob_sq / s.sigma_min ** 2
        assert abs(ratio - target) <= 0.01 * target


def test_gen_conditioned_preserves_singular_vectors():
    M = gen_conditioned(12, 5, 60.0, seed=4)
    res = svd_small(M)
    assert res.U.shape == (12, 5)
    assert np.linalg.norm(res.U.T @ res.U - np.eye(5)) <= 1e-9
    assert np.linalg.norm(res.V.T @ res.V - np.eye(5)) <= 1e-9
    rebuilt = res.U @ np.diag(res.singular_values) @ res.V.T
    assert np.linalg.norm(rebuilt - M.entries) <= 1e-9 * np.sqrt(M.frob_sq)


def test_gen_conditioned_infeasible():
    # below the rank floor; nan once failed later as non-finite entries, and
    # inf after two numpy RuntimeWarnings
    for ratio in (4.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="infeasible spectrum target"):
            gen_conditioned(10, 5, ratio, seed=0)
    with pytest.raises(ValueError, match="need m >= n"):
        gen_conditioned(4, 6, 100.0, seed=0)


# ---------------------------------------------------------------------------
# planted solutions
# ---------------------------------------------------------------------------


def test_gen_solution_identity():
    xs, b = gen_solution(Matrix(np.eye(4)), 9)
    w = Rng(9).normal(4)
    np.testing.assert_allclose(xs, w / np.linalg.norm(w), atol=1e-15)
    np.testing.assert_array_equal(b, xs)


def test_gen_solution_unit_norm_and_row_space():
    for seed in range(5):
        A = gen_gaussian(9, 6, 50 + seed)
        xs, b = gen_solution(A, seed)
        assert abs(np.linalg.norm(xs) - 1.0) <= 1e-12
        np.testing.assert_allclose(A.entries @ xs, b, atol=1e-12)
        res = svd_small(A)
        basis = res.V[:, :res.rank]
        proj = basis @ (basis.T @ xs)
        assert np.linalg.norm(proj - xs) <= 1e-10


def test_gen_solution_degenerate():
    # zero matrix cannot host a row-space solution
    zero_like = Matrix(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="degenerate matrix"):
        gen_solution(zero_like, 0)


def test_synthetic_problem_structure():
    p = synthetic_problem(20, 8, 3)
    assert p.A.shape == (20, 8)
    np.testing.assert_array_equal(p.x0, np.zeros(8))
    # from x0 = 0 the projected solution is the planted one
    np.testing.assert_allclose(p.x0_star, p.x_star, atol=1e-9)
    assert p.label == "gaussian-20x8"


def test_conditioned_problem_structure():
    p = conditioned_problem(30, 10, 200.0, 5)
    s = spectral_scalars(p.A)
    assert abs(s.frob_sq / s.sigma_min ** 2 - 200.0) <= 2.0
    np.testing.assert_allclose(p.x0_star, p.x_star, atol=1e-9)


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------


def test_mtx_coordinate_diag(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% comment\n2 2 2\n1 1 1.0\n2 2 2.0\n")
    np.testing.assert_array_equal(read_matrix_market(path), np.diag([1.0, 2.0]))


def test_mtx_symmetric_mirrors(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 2\n1 1 3.0\n2 1 5.0\n")
    np.testing.assert_array_equal(read_matrix_market(path),
                                  [[3.0, 5.0], [5.0, 0.0]])


def test_mtx_array_format(tmp_path):
    path = tmp_path / "a.mtx"
    # array format is column-major
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 2\n1.0\n2.0\n3.0\n4.0\n")
    np.testing.assert_array_equal(read_matrix_market(path),
                                  [[1.0, 3.0], [2.0, 4.0]])


def test_mtx_array_symmetric_mirrors_lower_triangle(tmp_path):
    path = tmp_path / "s.mtx"
    # the lower triangle, column by column: (1,1) (2,1) (3,1) (2,2) (3,2) (3,3)
    head = "%%MatrixMarket matrix array real symmetric\n3 3\n"
    path.write_text(head + "1.0\n2.0\n3.0\n4.0\n5.0\n-0.0\n")
    arr = read_matrix_market(path)
    np.testing.assert_array_equal(arr, [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0],
                                        [3.0, 5.0, 0.0]])
    assert np.signbit(arr[2, 2])
    path.write_text(head + "1.0\n2.0\n3.0\n4.0\n5.0\n")
    with pytest.raises(ValueError, match="line 2: expected 6 values, found 5"):
        read_matrix_market(path)
    path.write_text(head + "1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n7.0\n8.0\n9.0\n")
    with pytest.raises(ValueError, match="line 2: expected 6 values, found 9"):
        read_matrix_market(path)
    path.write_text(head + "1.0\n2.0\n3.0\nfive\n5.0\n6.0\n")
    with pytest.raises(ValueError, match="line 6: bad value"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 3\n" + "1\n" * 5)
    with pytest.raises(ValueError, match="line 2: symmetric matrix must be square"):
        read_matrix_market(path)


def test_mtx_size_line_checks(tmp_path):
    path = tmp_path / "z.mtx"
    for fmt, size, msg in (("array", "2 2 4", "array size line needs m n"),
                           ("coordinate", "2 2", "coordinate size line needs m n nnz"),
                           ("array", "0 2", "bad dimensions"),
                           ("coordinate", "2 2 -1", "bad dimensions"),
                           ("array", "2 x", "bad size line")):
        path.write_text(f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        with pytest.raises(ValueError, match="line 2: " + msg):
            read_matrix_market(path)


def test_mtx_rejects_unsupported(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                    "1 1 1\n1 1 1.0 0.0\n")
    with pytest.raises(ValueError, match="unsupported format"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                    "1 1 1\n1 1\n")
    with pytest.raises(ValueError, match="unsupported format"):
        read_matrix_market(path)


def test_mtx_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n1 x 2.0\n")
    with pytest.raises(ValueError, match="line 4"):
        read_matrix_market(path)
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match="line 1"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n3 1 2.0\n")
    with pytest.raises(ValueError, match="line 4.*out of range"):
        read_matrix_market(path)


def test_mtx_rejects_duplicate_entry(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n")
    with pytest.raises(ValueError, match="line 5: duplicate entry"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 2\n2 1 3.0\n2 1 3.0\n")
    with pytest.raises(ValueError, match="line 4: duplicate entry"):
        read_matrix_market(path)


def test_mtx_roundtrip_exact(tmp_path):
    arr = np.random.default_rng(2).standard_normal((7, 4)) * 1e3
    arr[2, 1] = 0.0
    for fmt in ("coordinate", "array"):
        path = tmp_path / f"rt_{fmt}.mtx"
        write_matrix_market(path, arr, fmt=fmt)
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back, arr)


def test_load_transposes_wide(tmp_path):
    arr = np.arange(6, dtype=np.float64).reshape(2, 3) + 1.0
    path = tmp_path / "wide.mtx"
    write_matrix_market(path, arr)
    loaded = load_matrix_market(path)
    assert loaded.shape == (3, 2)
    np.testing.assert_array_equal(loaded.entries, arr.T)


def test_mtx_problem_solvable(tmp_path):
    arr = np.random.default_rng(4).standard_normal((6, 3))
    path = tmp_path / "p.mtx"
    write_matrix_market(path, arr)
    p = mtx_problem(path, seed=11)
    assert p.A.shape == (6, 3)
    assert np.linalg.norm(p.A.entries @ p.x_star - p.b) <= 1e-10 * (1 + np.linalg.norm(p.b))


FRANZ1 = "data/franz1.mtx"


@pytest.mark.skipif(not __import__("os").path.exists(FRANZ1),
                    reason="matrix file not bundled; supply data/franz1.mtx")
def test_franz1_shape():
    assert load_matrix_market(FRANZ1).shape == (2240, 768)


# ---------------------------------------------------------------------------
# consensus graphs
# ---------------------------------------------------------------------------


def test_ac_line_three_nodes():
    p = gen_ac_problem(GraphSpec("line", 3), c=np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(p.x0_star, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(p.x_star, [1.0, 1.0, 1.0])
    assert p.A.shape == (2, 3)
    np.testing.assert_array_equal(p.b, np.zeros(2))


def test_ac_cycle_incidence():
    p = gen_ac_problem(GraphSpec("cycle", 4), c=np.arange(4.0))
    assert p.A.shape == (4, 4)
    for row in p.A.entries:
        vals = sorted(row.tolist())
        assert vals.count(1.0) == 1 and vals.count(-1.0) == 1
        assert row.sum() == 0.0


def test_ac_rows_orthogonal_to_ones():
    p = gen_ac_problem(GraphSpec("geometric", 30, seed=6), c=Rng(1).uniform(30))
    assert np.all(p.A.entries.sum(axis=1) == 0.0)
    assert p.info["attempts"] >= 1


def test_geometric_default_radius_connects():
    edges, attempts = build_graph(GraphSpec("geometric", 100, seed=3))
    assert attempts == 1
    assert len(edges) >= 99  # spanning a connected graph needs n-1 edges


def test_geometric_small_radius_disconnects():
    # log(n)/n at n=50 leaves expected degree below 1; all retries fail
    with pytest.raises(ValueError, match="disconnected graph"):
        build_graph(GraphSpec("geometric", 50, radius=math.log(50) / 50, seed=0))


def test_graph_rejects_bad_spec():
    with pytest.raises(ValueError, match="unknown topology"):
        build_graph(GraphSpec("star", 5))
    with pytest.raises(ValueError, match="graph needs n >= 2"):
        build_graph(GraphSpec("line", 1))
    with pytest.raises(ValueError, match="radius must be positive"):
        build_graph(GraphSpec("geometric", 5, radius=0.0))


def test_default_radius_value():
    assert default_geometric_radius(100) == pytest.approx(
        math.sqrt(math.log(100) / 100), rel=1e-15)
    assert GEOMETRIC_RETRIES == 50


# ---------------------------------------------------------------------------
# special geometries
# ---------------------------------------------------------------------------


def test_three_lines_fixed_point():
    p = three_lines_failure_problem()
    x = p.x0.copy()
    for i in range(3):
        x = reflect_row(x, p.A.entries[i], 0.0)
    half = 0.5 * (p.x0 + x)
    assert np.linalg.norm(half - p.x0) <= 1e-10
    assert np.linalg.norm(p.x0) > 1.0  # genuinely away from the solution


def test_three_lines_geometry():
    p = three_lines_failure_problem()
    assert p.A.shape == (3, 2)
    np.testing.assert_array_equal(p.b, np.zeros(3))
    np.testing.assert_array_equal(p.x_star, np.zeros(2))
    # normals pairwise at 60 degrees: |cos| = 1/2 for unit rows
    rows = p.A.entries
    for i in range(3):
        assert abs(np.linalg.norm(rows[i]) - 1.0) <= 1e-12
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(abs(rows[i] @ rows[j]) - 0.5) <= 1e-12


def test_three_lines_origin_fixed():
    p = three_lines_failure_problem()
    x = np.zeros(2)
    for i in range(3):
        x = reflect_row(x, p.A.entries[i], 0.0)
    np.testing.assert_allclose(0.5 * (np.zeros(2) + x), np.zeros(2), atol=1e-15)


def test_direction_adversarial_rows_unit():
    p = gen_direction_adversarial(seed=3, n=40)
    np.testing.assert_allclose(np.sqrt(p.A.row_norms_sq), np.ones(40), rtol=1e-12)
    assert np.abs(p.A.entries @ p.x_star - p.b).max() == 0.0
    np.testing.assert_array_equal(p.x0_star, p.x_star)
    assert not np.array_equal(p.x0, p.x_star)
