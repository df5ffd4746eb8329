"""Row-action solvers for consistent linear systems.

The main method reflects the iterate through ``r`` norm-weighted sampled row
hyperplanes and averages the result back with weight ``alpha``; a heavy-ball
term turns it into the momentum variant.  Classical baselines (Kaczmarz,
extended Kaczmarz, Gauss-Seidel, cyclic Douglas-Rachford, a deterministic
all-rows variant, and randomly permuted ADMM) share the same trace format
and driver, which advances all trials of a method as the rows of one block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import svd_small
from .problems import Problem
from .sampling import MASK64, Rng, _whole

# the SolverConfig fields each method reads, in label order
PARAMS = {"rrdr": ("r", "alpha"), "mrrdr": ("r", "alpha", "beta"), "rk": (),
          "rek": (), "rgs": (), "cyclic-dr": ("alpha",),
          "det-rsets-dr": ("alpha",), "rp-admm": ("penalty",)}
METHODS = tuple(PARAMS)
_TAGS = {"r": "r={}", "alpha": "a={:g}", "beta": "b={:g}", "penalty": "pen={:g}"}

DIVERGENCE_RSE = 1e6
RGS_RECOMPUTE_EVERY = 10 ** 4
DRAW_BLOCK = 1 << 14  # uniforms the lanes of a run draw between them at a time


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
        for name in ("max_row_actions", "max_iterations"):
            value = getattr(self, name)
            if value is not None and (_whole(value) is None or value < 1):
                raise ValueError(f"invalid parameter: {name} must be a whole number >= 1")


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
        # r and seed are kept as ints, so r=2.0 runs, labels and hashes as r=2
        r, seed = _whole(self.r), _whole(self.seed)
        if r is None or r < 1:
            raise ValueError("invalid parameter: r must be a positive integer")
        if seed is None or not 0 <= seed <= MASK64:
            raise ValueError("invalid parameter: seed must be an integer in [0, 2**64)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "seed", seed)
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("invalid parameter: alpha must lie in (0, 1)")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("invalid parameter: beta must lie in [0, 1)")
        if not 0.0 < self.penalty < math.inf:
            raise ValueError("invalid parameter: penalty must be finite and positive")
        if _whole(self.trace_every) is None or self.trace_every < 0:
            raise ValueError("invalid parameter: trace_every must be a whole number >= 0")
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


class Runs(tuple):
    """The results of one :func:`run` call, in the order of its configs."""

    iterations = property(lambda self: sum(res.iterations for res in self))
    row_actions = property(lambda self: sum(res.row_actions for res in self))


# a block's rows: SolverState arrays, parameters, row actions an iteration, streams
_LANE_ARRAYS = ("x", "x_prev", "z_aux", "mu", "residual", "z_last")
_PER_LANE = _LANE_ARRAYS + ("r", "alpha", "beta", "penalty", "per", "rngs")


class _Lanes:
    """Trials of one method in lockstep, one lane per row of each block.

    Lanes are sorted by ``r``, highest first, so reflection j of an iteration
    acts on the leading ``prefix[j]`` lanes.  Each lane draws from its own
    stream, about ``size`` uniforms for all lanes at a time, into its own
    stretch of one flat block; PCG64 fills ``random(out=...)`` exactly as it
    draws ``random(size)`` or ``size`` scalars.  A lane that leaves keeps its
    rows of the drawn indices, which ``draw`` reads through a map of the
    lanes that stay until the next refill."""

    def __init__(self, problem: Problem, states, configs, rngs, size: int):
        # a step function's one lane is a view of its state
        stack = (lambda rows: rows[0][None]) if len(states) == 1 else np.stack
        self.k, self.cyclic_cursor = states[0].k, states[0].cyclic_cursor
        for name in ("x", "z_aux", "mu", "residual"):
            rows = [getattr(s, name) for s in states]
            setattr(self, name, None if rows[0] is None else stack(rows))
        # a lane without momentum never reads its previous iterate
        self.x_prev = stack([s.x if s.x_prev is None else s.x_prev for s in states]) \
            if any(c.beta for c in configs) else None
        # a column of each parameter the method reads
        read = PARAMS[configs[0].method]
        for name in _TAGS:
            setattr(self, name, np.array([[getattr(c, name)] for c in configs])
                    if name in read else None)
        self.samplers = [getattr(problem, f"{name}_sampler")
                         for name in _SAMPLERS.get(configs[0].method, ())]
        # a sampled method draws one index per row action
        self.per = np.array([_per_iteration(c, problem) for c in configs])
        self.rngs = np.fromiter(rngs, object)  # an array, so ``take`` applies
        self.size, self.z_last, self.drawn, self.row = size, None, None, None
        self._derive()

    def _derive(self):
        # the fields that follow from the lanes' parameters
        self.lane = np.arange(len(self.per))
        if self.alpha is not None:
            self.stay = 1.0 - self.alpha
        if self.r is not None:
            # prefix[j] = the number of lanes with r > j
            self.prefix = np.bincount(self.r[:, 0])[:0:-1].cumsum()[::-1].tolist()
        # where the momentum term applies: every lane (True), no lane (None),
        # or every lane but those of an index array, whose term is -0.0
        mom = 0 if self.beta is None else np.count_nonzero(self.beta)
        self.mom = None if not mom else True if mom == len(self.beta) \
            else np.flatnonzero(self.beta[:, 0] == 0.0)

    def take(self, keep: np.ndarray):
        """Keep only the lanes ``keep``, an index array, in that order."""
        for name in _PER_LANE:
            if (rows := getattr(self, name)) is not None:
                setattr(self, name, rows[keep])
        # the drawn block keeps its rows; map the lanes that stay onto them
        self.row = keep if self.row is None else self.row[keep]
        self._derive()

    def draw(self):
        """Each lane's indices for its next iteration, a row each; the
        streams for a method without samplers (rp-admm draws permutations)."""
        if not self.samplers:
            return self.rngs
        if self.drawn is None or self.i == self.drawn.shape[1]:
            self._refill()
        self.i += 1
        return self.drawn[:, self.i - 1] if self.row is None \
            else self.drawn[self.row, self.i - 1]

    def _refill(self):
        # lane t fills its own stretch of u, iters * per[t] draws, iteration
        # by iteration; only real draws are looked up, those of a sampler
        # every len(samplers)-th (rek: a column, then a row)
        per, k = self.per.tolist(), len(self.samplers)
        iters = max(1, self.size // sum(per))
        u, start = np.empty(iters * sum(per)), 0
        for rng, c in zip(self.rngs, per):
            rng.uniform(out=u[start:start + iters * c])
            start += iters * c
        drawn = self.samplers[0].lookup(u) if k == 1 \
            else np.stack([s.lookup(u[p::k]) for p, s in enumerate(self.samplers)], -1)
        width = per[0]  # the most draws of any lane, as lanes are sorted by r
        if per[-1] == width:
            drawn = drawn.reshape(len(per), iters, width)
        else:
            # draw j of iteration s of lane t; a lane with fewer than width
            # draws repeats its last in the places the update never reads
            c = self.per[:, None, None]
            drawn = drawn[iters * (c.cumsum(0) - c) + c * np.arange(iters)[:, None]
                          + np.minimum(np.arange(width), c - 1)]
        self.drawn, self.i, self.row = drawn, 0, None


# Updates: one iteration of every lane, given the indices it drew.  Dots are
# np.vecdot over gathered rows, which sums each lane as ndarray.dot does (both
# call the BLAS ddot), and each elementwise operation keeps the order of the
# one-trial formula, so no lane's bits depend on the others.


def _dr_update(lanes: _Lanes, problem: Problem, rows):
    """Reflect each lane through its rows in order (one index for all lanes,
    or indices of the leading lanes), then average with weight alpha and add
    beta times the last move."""
    A, b, rn = problem.A.entries, problem.b, problem.A.row_norms_sq
    x = z = lanes.x
    for j in rows:
        zj = z if isinstance(j, int) else z[:len(j)]
        a = A.take(j, 0)
        c = np.vecdot(a, zj) - b[j]
        f = ((c + c) / rn[j])[:, None]  # c + c is 2.0 * c, bit for bit
        # the gathered rows of an index array are scaled in place; one row
        # of all lanes is scaled into a new block
        step = np.multiply(a, f, out=a if a.ndim == 2 else None)
        if z is x:  # the first reflection covers every lane
            z = x - step
        else:
            zj -= step
    out = x * lanes.stay
    out += z * lanes.alpha
    if (m := lanes.mom) is not None:
        move = x - lanes.x_prev
        move *= lanes.beta
        if m is not True:
            # a lane with beta = 0 adds -0.0, which leaves every value as it
            # is; adding its 0 * (x - x_prev) would turn -0.0 into +0.0 and
            # inf into nan
            move[m] = -0.0
        out += move
        lanes.x_prev = x
    lanes.x, lanes.z_last = out, z
    lanes.k += 1


def _cyclic_dr(lanes: _Lanes, problem: Problem, drawn):
    i, lanes.cyclic_cursor = lanes.cyclic_cursor, (lanes.cyclic_cursor + 1) % problem.A.m
    _dr_update(lanes, problem, (i, lanes.cyclic_cursor))


def _project(lanes: _Lanes, problem: Problem, i, shift=None):
    # each lane onto its row i of A x = b, with b[i] corrected by shift
    a = problem.A.entries.take(i, 0)
    c = np.vecdot(a, lanes.x) - problem.b[i]
    if shift is not None:
        c += shift
    a *= (c / problem.A.row_norms_sq[i])[:, None]
    lanes.x -= a
    lanes.k += 1


def _columns(A, j) -> np.ndarray:
    # columns j of A as rows with a stride, as A's column views have unless
    # n = 1: OpenBLAS sums a strided vector in another order than a contiguous one
    cols = np.empty((len(j), A.m, 1 + (A.n > 1)))[..., 0]
    cols[...] = A.entries.T[j]
    return cols


def _rek_update(lanes: _Lanes, problem: Problem, drawn):
    j, i = drawn.T
    col, z = _columns(problem.A, j), lanes.z_aux
    z -= col * (np.vecdot(col, z) / problem.A.col_norms_sq[j])[:, None]
    _project(lanes, problem, i, z[lanes.lane, i])


def _coordinate(lanes, problem, j, mu_over_pen=None, lane=slice(None)):
    # exact minimization along coordinate j of each lane, residual kept
    col, res = _columns(problem.A, j), lanes.residual
    t = np.vecdot(col, res[lane])
    if mu_over_pen is not None:
        t = t - np.vecdot(col, mu_over_pen[lane])
    delta = -t / problem.A.col_norms_sq[j]
    lanes.x[lanes.lane[lane], j] += delta
    res[lane] += col * delta[:, None]


def _residuals(problem: Problem, x) -> np.ndarray:
    # one matrix-vector product per lane, as ``A @ x`` computes it
    return np.matmul(problem.A.entries, x[:, :, None])[:, :, 0] - problem.b


def _rgs_update(lanes: _Lanes, problem: Problem, drawn):
    _coordinate(lanes, problem, drawn[:, 0])
    lanes.k += 1
    if lanes.k % RGS_RECOMPUTE_EVERY == 0:
        # cap incremental drift with a periodic full recompute
        lanes.residual = _residuals(problem, lanes.x)


def _rp_admm_update(lanes: _Lanes, problem: Problem, rngs):
    cn = problem.A.col_norms_sq
    mu_over_pen, some_zero = lanes.mu / lanes.penalty, not cn.all()
    for j in np.stack([rng.permutation(problem.A.n) for rng in rngs]).T:
        lane = slice(None)
        if some_zero and not cn[j].all():
            warnings.warn("rp-admm: skipping zero column", stacklevel=3)
            lane = np.flatnonzero(cn[j])
            j = j[lane]
        _coordinate(lanes, problem, j, mu_over_pen, lane)
    # refresh before the multiplier step so incremental drift cannot build up
    lanes.residual = _residuals(problem, lanes.x)
    lanes.mu -= lanes.residual
    lanes.k += 1


_UPDATES = {
    "rrdr": lambda lanes, problem, drawn: _dr_update(
        lanes, problem, [drawn[:c, j] for j, c in enumerate(lanes.prefix)]),
    "rk": lambda lanes, problem, drawn: _project(lanes, problem, drawn[:, 0]),
    "rek": _rek_update, "rgs": _rgs_update, "cyclic-dr": _cyclic_dr,
    "det-rsets-dr": lambda lanes, problem, drawn: _dr_update(
        lanes, problem, range(problem.A.m)),
    "rp-admm": _rp_admm_update}
_UPDATES["mrrdr"] = _UPDATES["rrdr"]
# the samplers of one iteration's draws; rrdr and mrrdr draw r rows
_SAMPLERS = {"rrdr": ("row",), "mrrdr": ("row",), "rk": ("row",),
             "rgs": ("col",), "rek": ("col", "row")}


def _per_iteration(config: SolverConfig, problem: Problem) -> int:
    """Row actions of one iteration of the config's method."""
    return {"rrdr": config.r, "mrrdr": config.r, "rek": 2, "cyclic-dr": 2,
            "det-rsets-dr": problem.A.m, "rp-admm": problem.A.n}.get(config.method, 1)


def _step(state: SolverState, problem: Problem, config: SolverConfig,
          rng: Rng) -> SolverState:
    """One iteration of ``config.method`` on one trial's state, as ``run``
    makes it, with the indices drawn from ``rng`` one call at a time."""
    lanes = _Lanes(problem, [state], [config], [rng], 0)
    _UPDATES[config.method](lanes, problem, lanes.draw())
    for name in _LANE_ARRAYS:
        if getattr(lanes, name) is not None:
            setattr(state, name, getattr(lanes, name)[0])
    state.k, state.cyclic_cursor = lanes.k, lanes.cyclic_cursor
    state.row_actions += _per_iteration(config, problem)
    return state


# the public step function of each method; each applies its config's update
rrdr_step = mrrdr_step = rk_step = rek_step = rgs_step = _step
cyclic_dr_step = det_rsets_dr_step = rp_admm_step = _step


class _Trial:
    """One lane's stop bounds, trace cadence, records and status."""

    def __init__(self, index, config, state, rse, problem, metrics_fn, at_solution):
        self.index, self.config = index, config  # the config's place in the call
        self.per, stop, self.records = _per_iteration(config, problem), config.stop, []
        self.note = lambda state, rse: self.records.append(
            _record(state, problem, metrics_fn, rse))
        self.note(state, rse)
        # rse is never negative, so a missing tolerance is a bound of 0
        self.tol = stop.rse_tol or 0.0
        self.max_k, self.max_actions = (math.inf if v is None else v for v in
                                        (stop.max_iterations, stop.max_row_actions))
        self.next_trace = config.trace_every or math.inf
        self.status = "converged" if at_solution or rse < self.tol else None
        self._due()

    def _due(self):
        # the first iteration at which a budget ends or a record falls due
        actions = min(self.max_actions, self.next_trace)
        self.due = min(self.max_k, actions if actions == math.inf
                       else -(-actions // self.per))

    def check(self, k: int, rse: float, x) -> bool:
        # the stop tests, then the trace record, at iteration k; true at the end
        actions = k * self.per
        if not math.isfinite(rse):
            self.status = "numerical-divergence"
        elif rse > DIVERGENCE_RSE:
            self.status = "diverged"
        elif rse < self.tol:
            self.status = "converged"
        elif k >= self.max_k or actions >= self.max_actions:
            self.status = "budget-exhausted"
        elif actions >= self.next_trace:
            self.note(SolverState(x=x, k=k, row_actions=actions), rse)
            while self.next_trace <= actions:
                self.next_trace += self.config.trace_every
            self._due()
        return self.status is not None

    def result(self, lanes: _Lanes, i: int, rse: float) -> RunResult:
        arrays = {name: getattr(lanes, name)[i].copy() for name in _LANE_ARRAYS
                  if getattr(lanes, name) is not None and (name != "x_prev" or self.config.beta)}
        state = SolverState(k=lanes.k, row_actions=lanes.k * self.per,
                            cyclic_cursor=lanes.cyclic_cursor, **arrays)
        if self.records[-1].k != state.k:
            self.note(state, rse)
        return RunResult(self.status, state.k, state.row_actions, rse, state.x,
                         self.records, state)


def init_state(problem: Problem, config: SolverConfig) -> SolverState:
    """Per-method state setup from the problem's start point."""
    x = problem.x0.astype(np.float64).copy()
    state = SolverState(x=x)
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


def run(problem: Problem, *configs: SolverConfig, metrics_fn=None) -> Runs:
    """Drive trials of one method to their stopping rules, as one block.

    One config per trial, all of one method; ``(res,) = run(problem,
    config)`` runs one.  ``config.seed`` fixes a trial's trajectory whatever
    the other configs: it is the one that ``init_state`` and successive calls
    of the method's step function on ``Rng(config.seed)`` give.
    ``metrics_fn`` maps an iterate to ``(dir_ratio, vmin_overlap)`` for the
    trace records.  Returns one RunResult per config, in argument order; the
    relative squared error (RSE) is measured against the projection of the
    start point onto the solution set.
    """
    if not configs or any(c.method != configs[0].method for c in configs):
        raise ValueError("run takes one or more configs of one method")
    method = configs[0].method
    if method in ("rrdr", "mrrdr") and any(c.r % 2 == 0 for c in configs) \
            and svd_small(problem.A).rank < 2:
        raise ValueError("even-r requires rank >= 2")
    if problem.A.zero_rows and method in ("cyclic-dr", "det-rsets-dr"):
        raise ValueError("degenerate hyperplane: zero row in cyclic sweep")

    order = sorted(range(len(configs)), key=lambda i: -configs[i].r)
    group = [configs[i] for i in order]
    states = [init_state(problem, c) for c in group]
    d = states[0].x - problem.x0_star
    den = float(d @ d)
    rse0 = float(d @ d) / den if den > 0.0 else 0.0
    trials = np.fromiter((_Trial(i, c, s, rse0, problem, metrics_fn, den == 0.0)
                          for i, c, s in zip(order, group, states)), object)
    lanes = _Lanes(problem, states, group, [Rng(c.seed) for c in group], DRAW_BLOCK)
    update, results, rse = _UPDATES[method], [None] * len(configs), np.full(len(group), rse0)
    tol, due = (np.array([getattr(t, name) for t in trials], dtype=float)
                for name in ("tol", "due"))
    ended = [i for i, t in enumerate(trials) if t.status is not None]
    while True:
        # results of the lanes that ended, and a block of the others
        for i in ended:
            results[trials[i].index] = trials[i].result(lanes, i, float(rse[i]))
        if len(ended) == len(trials):
            return Runs(results)
        if ended:
            keep = np.delete(np.arange(len(trials)), ended)
            lanes.take(keep)
            trials, tol, due = trials[keep], tol[keep], due[keep]
        tol_max, next_due, ended = tol.max(), due.min(), []
        while not ended:
            update(lanes, problem, lanes.draw())
            k, d = lanes.k, lanes.x - problem.x0_star
            sq = np.vecdot(d, d)
            # division by den keeps order, so unless these fail, no lane
            # can end or need a record
            if k < next_due and np.maximum.reduce(sq) / den <= DIVERGENCE_RSE \
                    and np.minimum.reduce(sq) / den >= tol_max:
                continue
            rse = sq / den
            for i in np.flatnonzero(~(rse <= DIVERGENCE_RSE) | (rse < tol) | (due <= k)):
                if trials[i].check(k, float(rse[i]), lanes.x[i]):
                    ended.append(i)
                due[i] = trials[i].due
            next_due = due.min()
