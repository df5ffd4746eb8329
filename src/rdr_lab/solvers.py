"""Row-action solvers for consistent linear systems.

The main method reflects the iterate through ``r`` norm-weighted sampled row
hyperplanes and averages the result back with weight ``alpha``; a heavy-ball
term turns it into the momentum variant.  Classical baselines (Kaczmarz,
extended Kaczmarz, Gauss-Seidel, cyclic Douglas-Rachford, a deterministic
all-rows variant, and randomly permuted ADMM) share the same driver and
trace format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import svd_small
from .problems import Problem
from .sampling import Rng

# the SolverConfig fields each method reads, in label order; det-rsets-dr
# composes all m rows and keeps ``r`` only as a tag of its label
PARAMS = {"rrdr": ("r", "alpha"), "mrrdr": ("r", "alpha", "beta"), "rk": (),
          "rek": (), "rgs": (), "cyclic-dr": ("alpha",),
          "det-rsets-dr": ("r", "alpha"), "rp-admm": ("penalty",)}
METHODS = tuple(PARAMS)
_TAGS = {"r": "r={}", "alpha": "a={:g}", "beta": "b={:g}", "penalty": "pen={:g}"}

DIVERGENCE_RSE = 1e6
RGS_RECOMPUTE_EVERY = 10 ** 4
DRAW_BLOCK = 4096  # uniforms run() draws at a time for a trial's indices


@dataclass(frozen=True)
class StopRule:
    """Termination bounds; at least one must be finite."""

    rse_tol: float | None = 1e-12
    max_row_actions: int | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if self.rse_tol is None and self.max_row_actions is None \
                and self.max_iterations is None:
            raise ValueError("invalid parameter: no finite stopping bound")
        if self.rse_tol is not None and not (0.0 < self.rse_tol):
            raise ValueError("invalid parameter: rse_tol must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """Method selection plus every tunable the methods share.

    A tunable its method does not read (see ``PARAMS``) is reset to its
    default once validated, so configs that run the same trials compare and
    hash equal."""

    method: str
    r: int = 1
    alpha: float = 0.5
    beta: float = 0.0
    penalty: float = 1.0
    seed: int = 0
    stop: StopRule = field(default_factory=StopRule)
    trace_every: int = 0  # row actions between trace records; 0 = ends only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method}")
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("invalid parameter: r must be a positive integer")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("invalid parameter: alpha must lie in (0, 1)")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("invalid parameter: beta must lie in [0, 1)")
        if self.penalty <= 0.0:
            raise ValueError("invalid parameter: penalty must be positive")
        if self.trace_every < 0:
            raise ValueError("invalid parameter: trace_every must be >= 0")
        for f in fields(self):
            if f.name in _TAGS and f.name not in PARAMS[self.method]:
                object.__setattr__(self, f.name, f.default)

    def label(self) -> str:
        tags = [_TAGS[name].format(getattr(self, name))
                for name in PARAMS[self.method]]
        return f"{self.method}[{','.join(tags)}]" if tags else self.method


@dataclass
class SolverState:
    """Mutable per-trial state; owned by exactly one run."""

    x: np.ndarray
    x_prev: np.ndarray | None = None
    z_aux: np.ndarray | None = None     # extended-Kaczmarz auxiliary sequence
    mu: np.ndarray | None = None        # ADMM multiplier
    residual: np.ndarray | None = None  # A x - b, maintained incrementally
    k: int = 0
    row_actions: int = 0
    cyclic_cursor: int = 0
    z_last: np.ndarray | None = None    # last reflected point, for diagnostics
    # the problem's operands, set by init_state and released when run returns
    operands: _Operands | None = field(default=None, repr=False)


@dataclass
class TraceRecord:
    k: int
    row_actions: int
    rse: float
    residual_norm2: float | None = None
    dir_ratio: float | None = None
    vmin_overlap: float | None = None


@dataclass
class RunResult:
    status: str  # converged | budget-exhausted | diverged | numerical-divergence
    iterations: int
    row_actions: int
    rse: float
    x: np.ndarray
    records: list
    state: SolverState


class _Operands:
    """A problem's operands as the updates read them fastest: row and column
    views of ``A``, Python floats, and a scratch vector of each length.

    ``c`` is a 0-d scratch for the scalar of a scalar-times-vector product:
    numpy multiplies by a 0-d array without first converting a Python float,
    which saves about a third of such a call on 50-vectors."""

    def __init__(self, problem: Problem):
        A = problem.A
        self.rows, self.cols = list(A.entries), list(A.entries.T)
        self.b, self.rn = problem.b.tolist(), A.row_norms_sq.tolist()
        self.cn = A.col_norms_sq.tolist()
        self.tmp_n, self.tmp_m = np.empty(A.n), np.empty(A.m)
        self.c = np.empty(())


# ---------------------------------------------------------------------------
# updates: one iteration given the indices it drew, shared by the public
# step functions and by run
# ---------------------------------------------------------------------------


def _dr_update(state: SolverState, rows, alpha: float,
               beta: float) -> SolverState:
    """Reflect through ``rows`` in order, then average with weight alpha and
    add beta times the last move."""
    ops = state.operands
    a_rows, b, rn, tmp, c = ops.rows, ops.b, ops.rn, ops.tmp_n, ops.c
    x = state.x
    z = x.copy()
    for j in rows:
        a = a_rows[j]
        c[()] = 2.0 * (float(a.dot(z)) - b[j]) / rn[j]
        np.multiply(a, c, tmp)
        z -= tmp
    c[()] = 1.0 - alpha
    out = np.multiply(x, c)
    c[()] = alpha
    np.multiply(z, c, tmp)
    out += tmp
    if beta:
        # at beta = 0 the term is exactly zero, so skipping it keeps every bit
        np.subtract(x, state.x_prev, tmp)
        c[()] = beta
        tmp *= c
        out += tmp
        state.x_prev = x
    state.x, state.z_last = out, z
    state.k += 1
    state.row_actions += len(rows)
    return state


def _cyclic_rows(state: SolverState, m: int):
    """The next two consecutive rows in cyclic order; advances the cursor."""
    i = state.cyclic_cursor
    state.cyclic_cursor = (i + 1) % m
    return (i, state.cyclic_cursor)


def _rk_update(state: SolverState, j) -> SolverState:
    ops = state.operands
    a = ops.rows[j]
    ops.c[()] = (float(a.dot(state.x)) - ops.b[j]) / ops.rn[j]
    np.multiply(a, ops.c, ops.tmp_n)
    state.x -= ops.tmp_n
    state.k += 1
    state.row_actions += 1
    return state


def _rek_update(state: SolverState, j, i) -> SolverState:
    ops = state.operands
    col, z, c = ops.cols[j], state.z_aux, ops.c
    c[()] = float(col.dot(z)) / ops.cn[j]
    np.multiply(col, c, ops.tmp_m)
    z -= ops.tmp_m
    a = ops.rows[i]
    c[()] = (float(a.dot(state.x)) - ops.b[i] + float(z[i])) / ops.rn[i]
    np.multiply(a, c, ops.tmp_n)
    state.x -= ops.tmp_n
    state.k += 1
    state.row_actions += 2  # one column touch plus one row touch
    return state


def _rgs_update(state: SolverState, j, problem: Problem) -> SolverState:
    ops = state.operands
    col = ops.cols[j]
    delta = -float(col.dot(state.residual)) / ops.cn[j]
    state.x[j] += delta
    ops.c[()] = delta
    np.multiply(col, ops.c, ops.tmp_m)
    state.residual += ops.tmp_m
    state.k += 1
    state.row_actions += 1
    if state.k % RGS_RECOMPUTE_EVERY == 0:
        # cap incremental drift with a periodic full recompute
        state.residual = problem.A.entries @ state.x - problem.b
    return state


def _rp_admm_update(state: SolverState, perm, penalty: float,
                    problem: Problem) -> SolverState:
    ops = state.operands
    x, res, tmp, c = state.x, state.residual, ops.tmp_m, ops.c
    mu_over_pen = state.mu / penalty
    for j in perm:
        if ops.cn[j] == 0.0:
            warnings.warn("rp-admm: skipping zero column", stacklevel=3)
            continue
        col = ops.cols[j]
        delta = -(float(col.dot(res)) - float(col.dot(mu_over_pen))) / ops.cn[j]
        x[j] += delta
        c[()] = delta
        np.multiply(col, c, tmp)
        res += tmp
    # refresh before the multiplier step so incremental drift cannot build up
    state.residual = problem.A.entries @ x - problem.b
    state.mu -= state.residual
    state.k += 1
    state.row_actions += len(perm)
    return state


# ---------------------------------------------------------------------------
# step functions: draw one iteration's indices, then apply its update
# ---------------------------------------------------------------------------


def mrrdr_step(state: SolverState, problem: Problem, config: SolverConfig,
               rng: Rng) -> SolverState:
    """One iteration: r sampled reflections, alpha-averaging, plus beta times
    the last move."""
    rows = problem.row_sampler.sample_many(rng, config.r)
    return _dr_update(state, rows, config.alpha, config.beta)


# rrdr is the momentum method at beta = 0, which its configs always hold
rrdr_step = mrrdr_step


def rk_step(state: SolverState, problem: Problem, config: SolverConfig,
            rng: Rng) -> SolverState:
    """Randomized Kaczmarz: project onto one norm-weighted sampled row."""
    return _rk_update(state, problem.row_sampler.sample(rng))


def rek_step(state: SolverState, problem: Problem, config: SolverConfig,
             rng: Rng) -> SolverState:
    """Extended Kaczmarz: one column step on the auxiliary sequence, then one
    row projection against the corrected right-hand side."""
    j = problem.col_sampler.sample(rng)
    return _rek_update(state, j, problem.row_sampler.sample(rng))


def rgs_step(state: SolverState, problem: Problem, config: SolverConfig,
             rng: Rng) -> SolverState:
    """Randomized Gauss-Seidel / coordinate descent on the least-squares
    objective, with an incrementally maintained residual."""
    return _rgs_update(state, problem.col_sampler.sample(rng), problem)


def cyclic_dr_step(state: SolverState, problem: Problem, config: SolverConfig,
                   rng: Rng) -> SolverState:
    """Cyclic Douglas-Rachford: reflect through two consecutive rows in cyclic
    order, then average."""
    return _dr_update(state, _cyclic_rows(state, problem.A.m), config.alpha, 0.0)


def det_rsets_dr_step(state: SolverState, problem: Problem, config: SolverConfig,
                      rng: Rng) -> SolverState:
    """Deterministic variant: compose all m reflections in index order."""
    return _dr_update(state, range(problem.A.m), config.alpha, 0.0)


def rp_admm_step(state: SolverState, problem: Problem, config: SolverConfig,
                 rng: Rng) -> SolverState:
    """Randomly permuted ADMM sweep on the augmented Lagrangian.

    Coordinates are minimized exactly in a fresh uniform permutation against
    partially updated values, then the multiplier takes a unit step along the
    constraint residual.
    """
    return _rp_admm_update(state, rng.permutation(problem.A.n), config.penalty,
                           problem)


# ---------------------------------------------------------------------------
# run: the same updates, with indices drawn in blocks
# ---------------------------------------------------------------------------


def _drawn(samplers, rng: Rng):
    """Per-iteration tuples of one index from each sampler in turn, as that
    many successive ``sample(rng)`` calls give them.  Drawn in blocks of
    about ``DRAW_BLOCK``: a PCG64 block consumes the stream exactly like as
    many successive scalar draws."""
    k = len(samplers)
    while True:
        u = rng.uniform(k * max(1, DRAW_BLOCK // k))
        yield from zip(*(s.lookup(u[i::k]).tolist()
                         for i, s in enumerate(samplers)))


def _iterations(state: SolverState, problem: Problem, config: SolverConfig,
                rng: Rng):
    """Apply one iteration per resume, as the method's step function would,
    with indices from blocks of draws."""
    method, r, alpha, beta = config.method, config.r, config.alpha, config.beta
    m, n = problem.A.shape
    if method in ("rrdr", "mrrdr"):
        for rows in _drawn((problem.row_sampler,) * r, rng):
            yield _dr_update(state, rows, alpha, beta)
    elif method == "rk":
        for (j,) in _drawn((problem.row_sampler,), rng):
            yield _rk_update(state, j)
    elif method == "rgs":
        for (j,) in _drawn((problem.col_sampler,), rng):
            yield _rgs_update(state, j, problem)
    elif method == "rek":
        for j, i in _drawn((problem.col_sampler, problem.row_sampler), rng):
            yield _rek_update(state, j, i)
    elif method == "rp-admm":
        while True:
            yield _rp_admm_update(state, rng.permutation(n).tolist(),
                                  config.penalty, problem)
    elif method == "cyclic-dr":
        while True:
            yield _dr_update(state, _cyclic_rows(state, m), alpha, 0.0)
    else:  # det-rsets-dr
        while True:
            yield _dr_update(state, range(m), alpha, 0.0)


def init_state(problem: Problem, config: SolverConfig) -> SolverState:
    """Per-method state setup from the problem's start point."""
    x = problem.x0.astype(np.float64).copy()
    state = SolverState(x=x, operands=_Operands(problem))
    if config.beta:
        state.x_prev = x.copy()  # cold start: previous iterate equals x0
    if config.method == "rek":
        state.z_aux = problem.b.astype(np.float64).copy()
    if config.method in ("rgs", "rp-admm"):
        state.residual = problem.A.entries @ x - problem.b
    if config.method == "rp-admm":
        state.mu = np.zeros(problem.A.m)
    return state


def _record(state: SolverState, problem: Problem, metrics_fn, rse: float):
    rec = TraceRecord(k=state.k, row_actions=state.row_actions, rse=rse)
    resid = problem.A.entries @ state.x - problem.b
    rec.residual_norm2 = float(np.sqrt(resid @ resid))
    if metrics_fn is not None:
        rec.dir_ratio, rec.vmin_overlap = metrics_fn(state.x)
    return rec


def run(problem: Problem, config: SolverConfig, metrics_fn=None) -> RunResult:
    """Drive one solver trial to its stopping rule.

    Parameters
    ----------
    problem : Problem
    config : SolverConfig
        ``config.seed`` fixes the trajectory completely: it is the one that
        ``init_state`` and successive calls of the method's step function on
        ``Rng(config.seed)`` give.
    metrics_fn : callable, optional
        Maps the current iterate to ``(dir_ratio, vmin_overlap)``; attached
        to trace records when given.

    Returns
    -------
    RunResult
        Terminal status, counters, trace records, and the final iterate.
        The relative squared error (RSE) is measured against the projection
        of the start point onto the solution set.
    """
    if config.method in ("rrdr", "mrrdr") and config.r % 2 == 0 \
            and svd_small(problem.A).rank < 2:
        raise ValueError("even-r requires rank >= 2")
    if problem.A.zero_rows and config.method in ("cyclic-dr", "det-rsets-dr"):
        raise ValueError("degenerate hyperplane: zero row in cyclic sweep")

    rng = Rng(config.seed)
    state = init_state(problem, config)
    x0_star = problem.x0_star
    d = state.x - x0_star
    den = float(d @ d)
    rse = float(d @ d) / den if den > 0.0 else 0.0
    stop = config.stop
    # rse is never negative, so a missing tolerance is a bound of 0
    rse_tol = stop.rse_tol if stop.rse_tol is not None else 0.0
    max_k = math.inf if stop.max_iterations is None else stop.max_iterations
    max_actions = math.inf if stop.max_row_actions is None else stop.max_row_actions
    trace_every = config.trace_every
    next_trace = trace_every if trace_every > 0 else math.inf
    records = [_record(state, problem, metrics_fn, rse)]

    status = None
    if den == 0.0 or rse < rse_tol:
        status = "converged"
    iterations = _iterations(state, problem, config, rng)
    while status is None:
        next(iterations)
        np.subtract(state.x, x0_star, d)
        rse = float(d.dot(d)) / den
        if not math.isfinite(rse):
            status = "numerical-divergence"
            break
        if rse > DIVERGENCE_RSE:
            status = "diverged"
            break
        if rse < rse_tol:
            status = "converged"
            break
        if state.k >= max_k:
            status = "budget-exhausted"
            break
        if state.row_actions >= max_actions:
            status = "budget-exhausted"
            break
        if state.row_actions >= next_trace:
            records.append(_record(state, problem, metrics_fn, rse))
            while next_trace <= state.row_actions:
                next_trace += trace_every

    if records[-1].k != state.k:
        records.append(_record(state, problem, metrics_fn, rse))
    # a sweep keeps every RunResult; the views and lists are per-trial copies
    state.operands = None
    return RunResult(status=status, iterations=state.k,
                     row_actions=state.row_actions, rse=rse, x=state.x,
                     records=records, state=state)
