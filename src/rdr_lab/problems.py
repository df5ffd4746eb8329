"""Problem instances: generators, Matrix Market I/O, and special geometries.

Every instance is packaged as a :class:`Problem` carrying the matrix, the
right-hand side, a planted solution, the start point, and the reference point
``x0_star`` (the projection of the start onto the solution set) that error
traces are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import Matrix, as_matrix, projected_solution, reflect_row, svd_small
from .sampling import Rng, WeightedSampler, child_seed

GEOMETRIC_RETRIES = 50
_SOLUTION_RETRIES = 10


@dataclass(eq=False)
class Problem:
    """A consistent linear system ``A x = b`` with solver bookkeeping."""

    A: Matrix            # an array is checked and frozen as one (linalg.as_matrix)
    b: np.ndarray
    x_star: np.ndarray   # a planted solution (A @ x_star == b)
    x0: np.ndarray       # solver start point
    x0_star: np.ndarray  # projection of x0 onto the solution set
    label: str = "problem"
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = as_matrix(self.A)
        m, n = self.A.shape
        self.b = np.asarray(self.b, dtype=np.float64)
        self.x_star = np.asarray(self.x_star, dtype=np.float64)
        self.x0 = np.asarray(self.x0, dtype=np.float64)
        self.x0_star = np.asarray(self.x0_star, dtype=np.float64)
        if self.b.shape != (m,):
            raise ValueError("invalid matrix: b has wrong length")
        for v in (self.x_star, self.x0, self.x0_star):
            if v.shape != (n,):
                raise ValueError("invalid matrix: vector has wrong length")
        # |x0 - x0_star|^2 divides every RSE: if it overflows, a run ends at k = 1
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(float((d := self.x0 - self.x0_star) @ d)):
                raise ValueError("invalid start point: |x0 - x0_star|^2 is not finite")
        scale = math.sqrt(self.A.frob_sq) * max(1.0, float(np.abs(self.x_star).max()))
        resid = self.A.entries @ self.x_star - self.b
        if not float(np.sqrt(resid @ resid)) <= 1e-8 * max(scale, 1.0):  # nan fails too
            raise ValueError("inconsistent system")

    @cached_property
    def row_sampler(self) -> WeightedSampler:
        # Pr(i) = ||a_i||^2 / ||A||_F^2
        return WeightedSampler(self.A.row_norms_sq)

    @cached_property
    def col_sampler(self) -> WeightedSampler:
        return WeightedSampler(self.A.col_norms_sq)

    @property
    def shape(self):
        return self.A.shape


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_gaussian(m: int, n: int, seed: int) -> Matrix:
    """Matrix with i.i.d. standard normal entries."""
    if m < 1 or n < 1:
        raise ValueError("invalid matrix: dimensions must be positive")
    return Matrix(Rng(seed).normal((m, n)))


def gen_solution(A: Matrix, seed: int):
    """Planted unit-norm row-space solution and its right-hand side.

    ``x_star = A.T w / ||A.T w||`` for Gaussian ``w``, so the start point 0
    converges to ``x_star`` itself; ``b = A x_star``.
    """
    rng = Rng(seed)
    arr = A.entries
    for _ in range(_SOLUTION_RETRIES):
        w = rng.normal(A.m)
        y = arr.T @ w
        nrm_sq = float(y @ y)
        if nrm_sq > 0.0:
            x_star = y / math.sqrt(nrm_sq)
            return x_star, arr @ x_star
    raise ValueError("degenerate matrix")


def gen_conditioned(m: int, n: int, target_ratio: float, seed: int) -> Matrix:
    """Gaussian matrix rescaled to a prescribed ``frob_sq / sigma_min**2``.

    Starting from the SVD of a Gaussian draw, the gaps between each singular
    value and the smallest one are scaled by a common factor ``s`` (the
    positive root of a quadratic) so the ratio hits ``target_ratio`` exactly
    while ``sigma_min`` stays fixed.
    """
    if m < n:
        raise ValueError("invalid matrix: need m >= n")
    if not n <= target_ratio < math.inf:
        raise ValueError("infeasible spectrum target")
    base = gen_gaussian(m, n, seed)
    res = svd_small(base)
    if res.rank < n:
        raise ValueError("degenerate matrix")
    sig = res.singular_values.copy()
    s_min = float(sig[-1])
    d = sig - s_min
    a = float(d @ d)
    if a == 0.0:
        if abs(target_ratio - n) / n > 1e-12:
            raise ValueError("infeasible spectrum target")
        scale = 0.0
    else:
        bq = 2.0 * s_min * float(d.sum())
        cq = s_min * s_min * (n - float(target_ratio))
        scale = (-bq + math.sqrt(bq * bq - 4.0 * a * cq)) / (2.0 * a)
    new_sig = s_min + scale * d
    arr = (res.U * new_sig) @ res.V.T
    return Matrix(arr)


def _planted(A: Matrix, seed: int, label: str) -> Problem:
    """System on ``A`` with the planted solution of ``seed``, started at zero."""
    x_star, b = gen_solution(A, seed)
    x0 = np.zeros(A.n)
    return Problem(A=A, b=b, x_star=x_star, x0=x0,
                   x0_star=projected_solution(A, b, x0), label=label)


def synthetic_problem(m: int, n: int, seed: int, label: str = "gaussian") -> Problem:
    """Gaussian system with planted row-space solution, started at zero."""
    return _planted(gen_gaussian(m, n, seed), child_seed(seed, 1),
                    f"{label}-{m}x{n}")


def conditioned_problem(m: int, n: int, target_ratio: float, seed: int) -> Problem:
    """Spectrum-shaped Gaussian system, started at zero."""
    return _planted(gen_conditioned(m, n, target_ratio, seed), child_seed(seed, 1),
                    f"conditioned-{m}x{n}-r{target_ratio:g}")


# ---------------------------------------------------------------------------
# Matrix Market I/O
# ---------------------------------------------------------------------------


def read_matrix_market(path) -> np.ndarray:
    """Parse a real Matrix Market file (coordinate or array) to a dense array.

    Supports ``general`` and ``symmetric`` storage with real or integer
    fields; pattern and complex files are rejected.  Malformed lines and
    repeated coordinates raise with their line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError("line 1: empty file")
    header = lines[0].strip().split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" \
            or header[1].lower() != "matrix":
        raise ValueError("line 1: not a Matrix Market header")
    fmt, fld, sym = (h.lower() for h in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise ValueError("unsupported format: " + fmt)
    if fld not in ("real", "integer"):
        raise ValueError("unsupported format: field " + fld)
    if sym not in ("general", "symmetric"):
        raise ValueError("unsupported format: symmetry " + sym)

    body = []
    for ln, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append((ln, stripped))
    if not body:
        raise ValueError("line %d: missing size line" % (len(lines) + 1))

    ln, size_line = body[0]
    try:
        dims = [int(p) for p in size_line.split()]
    except ValueError:
        raise ValueError(f"line {ln}: bad size line") from None
    names = "m n nnz" if fmt == "coordinate" else "m n"
    if len(dims) != len(names.split()):
        raise ValueError(f"line {ln}: {fmt} size line needs {names}")
    m, n, nnz = (dims + [0])[:3]  # an array file has no nnz
    if m < 1 or n < 1 or nnz < 0:
        raise ValueError(f"line {ln}: bad dimensions")
    if sym == "symmetric" and m != n:
        raise ValueError(f"line {ln}: symmetric matrix must be square")
    entries = body[1:]

    if fmt == "coordinate":
        if len(entries) != nnz:
            raise ValueError(f"line {ln}: expected {nnz} entries, found {len(entries)}")
        arr = np.zeros((m, n))
        seen = set()
        for eln, text in entries:
            p = text.split()
            if len(p) != 3:
                raise ValueError(f"line {eln}: expected 'i j value'")
            try:
                i, j, val = int(p[0]), int(p[1]), float(p[2])
            except ValueError:
                raise ValueError(f"line {eln}: bad entry") from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"line {eln}: index out of range")
            if not math.isfinite(val):
                raise ValueError(f"line {eln}: non-finite value")
            if (i, j) in seen:
                raise ValueError(f"line {eln}: duplicate entry")
            seen.add((i, j))
            arr[i - 1, j - 1] = val
            if sym == "symmetric" and i != j:
                if j > i:
                    raise ValueError(f"line {eln}: upper-triangle entry in symmetric file")
                arr[j - 1, i - 1] = val
        return arr

    # array format: column-major values, the lower triangle if symmetric,
    # counted before any cell is made so a huge declared size fails at once
    expected = n * (n + 1) // 2 if sym == "symmetric" else m * n
    if len(entries) != expected:
        raise ValueError(f"line {ln}: expected {expected} values, found {len(entries)}")
    arr = np.zeros((m, n))
    cells = ((i, j) for j in range(n) for i in range(j if sym == "symmetric" else 0, m))
    for (i, j), (eln, text) in zip(cells, entries):
        try:
            arr[i, j] = float(text)
        except ValueError:
            raise ValueError(f"line {eln}: bad value") from None
    if sym == "symmetric":
        upper = np.triu_indices(n, 1)
        arr[upper] = arr.T[upper]
    if not np.all(np.isfinite(arr)):
        raise ValueError("invalid matrix: non-finite entries")
    return arr


def write_matrix_market(path, arr, fmt: str = "coordinate"):
    """Write a dense array as a real general Matrix Market file.

    Values are printed with 17 significant digits so a write-then-read round
    trip reproduces every float64 exactly.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("invalid matrix: expected a 2-d array")
    m, n = arr.shape
    with open(path, "w", encoding="ascii") as fh:
        if fmt == "coordinate":
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            rows, cols = np.nonzero(arr)
            fh.write(f"{m} {n} {len(rows)}\n")
            for i, j in zip(rows, cols):
                fh.write(f"{i + 1} {j + 1} {arr[i, j]:.17g}\n")
        elif fmt == "array":
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{m} {n}\n")
            for j in range(n):
                for i in range(m):
                    fh.write(f"{arr[i, j]:.17g}\n")
        else:
            raise ValueError("unsupported format: " + fmt)


def load_matrix_market(path) -> Matrix:
    """Load a Matrix Market file as a :class:`Matrix`, transposed if m < n.

    Row-action methods want overdetermined systems, so wide inputs are
    replaced by their transpose on load.
    """
    arr = read_matrix_market(path)
    if arr.shape[0] < arr.shape[1]:
        arr = arr.T.copy()
    return Matrix(arr)


def mtx_problem(path, seed: int) -> Problem:
    """System on a Matrix Market matrix with planted solution, start zero."""
    A = load_matrix_market(path)
    return _planted(A, seed, f"mtx-{A.m}x{A.n}")


# ---------------------------------------------------------------------------
# average consensus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Topology request for an average-consensus system."""

    topology: str  # line | cycle | geometric
    n: int
    radius: float | None = None  # geometric only; default sqrt(log(n)/n)
    seed: int = 0


def default_geometric_radius(n: int) -> float:
    """Connectivity-preserving default radius for geometric graphs.

    sqrt(log(n)/n) keeps the expected degree near pi*log(n), comfortably
    above the connectivity threshold for unit-square geometric graphs.
    """
    return math.sqrt(math.log(n) / n)


def _bfs_connected(n: int, adjacency) -> bool:
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def _geometric_edges(n: int, radius: float, rng: Rng):
    pts = rng.uniform((n, 2))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            d = pts[u] - pts[v]
            if float(d @ d) <= radius * radius:
                edges.append((u, v))
    return edges


def build_graph(spec: GraphSpec):
    """Edge list for the requested topology; geometric graphs retry seeds.

    Returns ``(edges, attempts)``.  Geometric graphs are resampled with fresh
    child seeds until connected, up to ``GEOMETRIC_RETRIES`` times.
    """
    n = spec.n
    if n < 2:
        raise ValueError("invalid matrix: graph needs n >= 2")
    if spec.topology == "line":
        return [(i, i + 1) for i in range(n - 1)], 1
    if spec.topology == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)], 1
    if spec.topology != "geometric":
        raise ValueError(f"unknown topology: {spec.topology}")
    radius = spec.radius if spec.radius is not None else default_geometric_radius(n)
    if not (0.0 < radius):
        raise ValueError("invalid matrix: radius must be positive")
    root = Rng(spec.seed)
    for attempt in range(1, GEOMETRIC_RETRIES + 1):
        edges = _geometric_edges(n, radius, root.child(attempt))
        adjacency = [[] for _ in range(n)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        if edges and _bfs_connected(n, adjacency):
            return edges, attempt
    raise ValueError("disconnected graph")


def gen_ac_problem(spec: GraphSpec, c) -> Problem:
    """Average-consensus system: rows ``x_u - x_v = 0`` over graph edges.

    On a connected graph the solution set is the span of the all-ones vector,
    so the projection of the start vector ``c`` is ``mean(c) * ones``.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (spec.n,):
        raise ValueError("invalid matrix: c has wrong length")
    edges, attempts = build_graph(spec)
    arr = np.zeros((len(edges), spec.n))
    for k, (u, v) in enumerate(edges):
        arr[k, u] = 1.0
        arr[k, v] = -1.0
    A = Matrix(arr)
    target = np.full(spec.n, float(c.mean()))
    return Problem(
        A=A, b=np.zeros(len(edges)), x_star=target, x0=c.copy(), x0_star=target,
        label=f"ac-{spec.topology}-{spec.n}",
        info={"edges": len(edges), "attempts": attempts},
    )


# ---------------------------------------------------------------------------
# special geometries
# ---------------------------------------------------------------------------


def three_lines_failure_problem() -> Problem:
    """Three lines through the origin at mutual 60 degrees, started on a cycle.

    The unique solution is the origin, but the start point is a fixed point
    of the composed reflection R3 R2 R1, so the deterministic all-rows
    variant never moves while randomized variants still converge.
    """
    s3 = math.sqrt(3.0)
    arr = np.array([
        [1.0, 0.0],
        [0.5, -s3 / 2.0],
        [0.5, s3 / 2.0],
    ])
    x0 = np.array([-1.3, -1.3 / s3])
    problem = Problem(
        A=Matrix(arr), b=np.zeros(3), x_star=np.zeros(2), x0=x0,
        x0_star=np.zeros(2), label="three-lines",
    )
    # the construction only works if x0 really is a fixed point of the
    # composed reflections; verify numerically rather than trusting algebra
    z = x0
    for a in arr:
        z = reflect_row(z, a, 0.0)
    if float(np.abs(z - x0).max()) > 1e-10:
        raise ValueError("degenerate matrix: cycling start point lost")
    return problem


def gen_direction_adversarial(seed: int, n: int = 500, diag: float = 100.0,
                              shift: float = 0.01) -> Problem:
    """Near-singular square system with one tiny, isolated singular value.

    ``A = diag + noise`` with the last row replaced by a small perturbation
    of the second-to-last (``shift`` added to every entry), then all rows
    normalized.  The bulk of the spectrum stays O(1) while one direction
    becomes nearly flat, which makes error traces stall along it.
    """
    rng = Rng(seed)
    arr = rng.normal((n, n)) + diag * np.eye(n)
    arr[n - 1] = arr[n - 2] + shift
    norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
    arr = arr / norms[:, None]
    A = Matrix(arr)
    x_star = rng.normal(n)
    b = arr @ x_star
    # square full-rank system: the projection of any start point is x_star
    return Problem(A=A, b=b, x_star=x_star, x0=np.zeros(n), x0_star=x_star.copy(),
                   label=f"adversarial-{n}")
