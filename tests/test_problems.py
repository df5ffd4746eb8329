"""Problem construction tests: synthetic generators, Matrix Market reading,
consensus graphs, and the special geometries."""

import hashlib
import math

import numpy as np
import pytest

from rdr_lab.linalg import Matrix, reflect_row, spectral_scalars, svd_small
from rdr_lab.problems import (
    GEOMETRIC_RETRIES,
    GraphSpec,
    Problem,
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


def test_problem_rejects_x0_star_off_the_solution_set():
    # every RSE is measured from x0_star: this one was accepted, and rk then
    # ended budget-exhausted at rse 0.64 on the solution x = [1, 1]
    with pytest.raises(ValueError, match="invalid start point: x0_star does not solve"):
        Problem(A=np.eye(2), b=np.ones(2), x_star=np.ones(2), x0=np.zeros(2),
                x0_star=np.array([5.0, 5.0]))


def test_problem_rejects_x0_star_that_is_not_the_projection_of_x0():
    # (1, 3) solves x_1 = 1 but is not the point nearest 0: rk once ended at
    # rse 0.9 there; the nearest point (1, 0) is accepted
    A, b = np.array([[1.0, 0.0]]), np.ones(1)
    with pytest.raises(ValueError, match="x0_star - x0 is not in the row space"):
        Problem(A=A, b=b, x_star=np.array([1.0, 3.0]), x0=np.zeros(2),
                x0_star=np.array([1.0, 3.0]))
    Problem(A=A, b=b, x_star=np.array([1.0, 3.0]), x0=np.zeros(2),
            x0_star=np.array([1.0, 0.0]))


@pytest.mark.parametrize("e", [1e-8, 1e-10, 1e-12])
def test_problem_accepts_exact_x0_star_on_an_ill_conditioned_system(e):
    # full rank, so x0_star = x_star; pinv(A) b misses it by 4.6e-8, 3.9e-6
    # and 3.8e-4 here, so a check against a recomputed projection rejects it
    A = np.array([[1.0, 2.0], [2.0, 4.0 + e]])
    x_star = np.array([1.0, -1.0])
    Problem(A=A, b=A @ x_star, x_star=x_star, x0=np.zeros(2), x0_star=x_star.copy())


def test_problem_consistency_invariant():
    for seed in (0, 1, 2):
        p = synthetic_problem(30, 12, seed)
        bnorm = np.linalg.norm(p.b)
        assert np.linalg.norm(p.A.entries @ p.x_star - p.b) <= 1e-10 * (1.0 + bnorm)
        assert np.linalg.norm(p.A.entries @ p.x0_star - p.b) <= 1e-9 * (1.0 + bnorm)


# the solvers carry e = x - x0_star and solve A e = 0, which is A x = b up to
# |A x0_star - b|.  On the sources' problems that is a rounding floor of at
# most ROUNDING_FLOOR eps |A|_F max(1, |x0_star|_inf): the seeds below read at
# most 2.3 (synthetic 8x12, seed 2), about 1 on conditioned at ratio 1e4, and
# exactly 0 where x0_star and b are built exactly (ac, three-lines, adversarial)
ROUNDING_FLOOR = 4.0


@pytest.mark.parametrize("make, exact", [
    *(pytest.param(lambda s=s, m=m, n=n: synthetic_problem(m, n, s), False,
                   id=f"synthetic-{m}x{n}-{s}")
      for s in (0, 1, 2) for m, n in ((200, 50), (8, 12))),
    *(pytest.param(lambda s=s: conditioned_problem(500, 100, 1e4, s), False,
                   id=f"conditioned-1e4-{s}") for s in (2024, 2025, 2026)),
    *(pytest.param(lambda s=s, t=t: gen_ac_problem(GraphSpec(topology=t, n=50, seed=777 + s),
                                                   Rng(999 + s).uniform(50)), True,
                   id=f"ac-{t}-{s}") for s in (0, 1, 2) for t in ("line", "cycle", "geometric")),
    pytest.param(three_lines_failure_problem, True, id="three-lines"),
    pytest.param(lambda: gen_direction_adversarial(2024), True, id="adversarial")])
def test_x0_star_residual_is_a_rounding_floor(make, exact):
    p = make()
    resid = p.A.entries @ p.x0_star - p.b
    floor = float(np.sqrt(resid @ resid))
    scale = np.finfo(np.float64).eps * math.sqrt(p.A.frob_sq) * max(1.0, float(np.abs(p.x0_star).max()))
    assert floor <= ROUNDING_FLOOR * scale
    assert floor == 0.0 or not exact


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
    # 17 significant digits give back every float64 exactly, in both formats
    arr = np.array([[1 / 3, -math.pi * 1e3], [0.0, math.e], [0.1, 2 / 3 * 1e-300]])
    files = {
        "coordinate": "3 2 5\n1 1 0.33333333333333331\n1 2 -3141.5926535897929\n"
                      "2 2 2.7182818284590451\n3 1 0.10000000000000001\n"
                      "3 2 6.6666666666666668e-301\n",
        "array": "3 2\n0.33333333333333331\n0\n0.10000000000000001\n"
                 "-3141.5926535897929\n2.7182818284590451\n6.6666666666666668e-301\n",
    }
    for fmt, body in files.items():
        path = tmp_path / f"rt_{fmt}.mtx"
        path.write_text(f"%%MatrixMarket matrix {fmt} real general\n" + body)
        np.testing.assert_array_equal(read_matrix_market(path), arr)


def test_load_transposes_wide(tmp_path):
    path = tmp_path / "wide.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 3\n1\n4\n2\n5\n3\n6\n")
    loaded = load_matrix_market(path)
    assert loaded.shape == (3, 2)
    np.testing.assert_array_equal(loaded.entries, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_mtx_problem_solvable(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n6 3\n"
                    "0.5\n-1.25\n2\n0\n3.5\n-0.75\n"
                    "1\n0.25\n-2.5\n1.5\n0\n4\n"
                    "-3\n2\n0.5\n-1\n1.75\n0.125\n")
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


def test_ac_line_incidence():
    p = gen_ac_problem(GraphSpec("line", 4), c=np.arange(4.0))
    np.testing.assert_array_equal(
        p.A.entries, [[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    assert p.info == {"edges": 3, "attempts": 1}


def test_ac_cycle_incidence():
    p = gen_ac_problem(GraphSpec("cycle", 4), c=np.arange(4.0))
    np.testing.assert_array_equal(
        p.A.entries, [[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0],
                      [-1.0, 0.0, 0.0, 1.0]])
    assert p.info == {"edges": 4, "attempts": 1}


def test_ac_rows_orthogonal_to_ones():
    p = gen_ac_problem(GraphSpec("geometric", 30, seed=6), c=Rng(1).uniform(30))
    assert np.all(p.A.entries.sum(axis=1) == 0.0)
    assert p.info["attempts"] >= 1


def test_geometric_default_radius_connects():
    p = gen_ac_problem(GraphSpec("geometric", 100, seed=3), np.zeros(100))
    assert p.info["attempts"] == 1
    assert p.info["edges"] >= 99  # spanning a connected graph needs n-1 edges


def test_geometric_small_radius_disconnects():
    # log(n)/n at n=50 leaves expected degree below 1; all retries fail
    with pytest.raises(ValueError, match="disconnected graph"):
        gen_ac_problem(GraphSpec("geometric", 50, radius=math.log(50) / 50, seed=0),
                       np.zeros(50))


@pytest.mark.parametrize("spec, edges, attempts, digest", [
    # criterion 10's graph, and a radius at which the first draw is disconnected
    (GraphSpec("geometric", 50, seed=777), 236, 1,
     "8564cf76388cc4180030863f26ed945f823c8f2bf0b0e34c96c9c5820cc7a4c6"),
    (GraphSpec("geometric", 200, 0.7 * default_geometric_radius(200), 0), 719, 2,
     "fe25447baf45dffc119052cd124c972837e52de69977eb429a58e3be74f683ed"),
], ids=["criterion10", "retry"])
def test_geometric_graph_pinned(spec, edges, attempts, digest):
    p = gen_ac_problem(spec, np.zeros(spec.n))
    assert (p.info["edges"], p.info["attempts"]) == (edges, attempts)
    A = p.A.entries
    assert np.all(np.count_nonzero(A, axis=1) == 2)
    got = np.stack([np.argmax(A == 1, 1), np.argmax(A == -1, 1)], 1).astype(np.int64)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest
    assert np.all(got[:, 0] < got[:, 1])


@pytest.mark.parametrize("spec, attempts", [
    (GraphSpec("geometric", 50, seed=777), 1),
    (GraphSpec("geometric", 200, 0.7 * default_geometric_radius(200), 0), 2),
], ids=["criterion10", "retry"])
def test_geometric_ac_factors_each_attempt_once(monkeypatch, spec, attempts):
    # the SVD whose rank accepted the graph is the one Problem checks x0_star with
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    p = gen_ac_problem(spec, Rng(1).uniform(spec.n))
    assert p.info["attempts"] == attempts == len(calls)
    assert svd_small(p.A).rank == spec.n - 1


@pytest.mark.parametrize("seed", (-1, 1.5, 2 ** 64))
def test_geometric_graph_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        gen_ac_problem(GraphSpec("geometric", 10, seed=seed), np.zeros(10))


def _fingerprint(made):
    if isinstance(made, Problem):
        return made.label, made.A.entries.tobytes(), made.b.tobytes(), made.x0_star.tobytes()
    return made.entries.tobytes()


_DIMENSIONS = "dimensions must be positive whole numbers"
_GRAPH = "graph needs n >= 2, a whole number"


@pytest.mark.parametrize("make, size, error", [
    (lambda k: synthetic_problem(k, 8, 1), 20, _DIMENSIONS),
    (lambda k: gen_conditioned(k, 10, 20.0, 1), 30, _DIMENSIONS),
    (lambda k: gen_direction_adversarial(3, n=k), 40, _DIMENSIONS),
    (lambda k: gen_ac_problem(GraphSpec("line", k), np.arange(5.0)), 5, _GRAPH),
    (lambda k: gen_ac_problem(GraphSpec("geometric", k), np.arange(6.0)), 6, _GRAPH),
], ids=["synthetic", "conditioned", "adversarial", "ac", "graph"])
def test_generators_take_whole_number_float_sizes(make, size, error):
    # each float size once raised TypeError: 'float' object cannot be
    # interpreted as an integer
    assert _fingerprint(make(float(size))) == _fingerprint(make(size))
    with pytest.raises(ValueError, match=f"invalid matrix: {error}"):
        make(size + 0.5)


def test_graph_rejects_bad_spec():
    with pytest.raises(ValueError, match="unknown topology"):
        gen_ac_problem(GraphSpec("star", 5), np.zeros(5))
    with pytest.raises(ValueError, match="graph needs n >= 2"):
        gen_ac_problem(GraphSpec("line", 1), np.zeros(1))
    with pytest.raises(ValueError, match="radius must be positive"):
        gen_ac_problem(GraphSpec("geometric", 5, radius=0.0), np.zeros(5))


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
    assert np.abs(x - p.x0).max() <= 1e-10
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
