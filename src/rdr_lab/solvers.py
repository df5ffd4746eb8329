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
from collections import namedtuple
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .linalg import svd_small
from .problems import Problem
from .sampling import MASK64, Rng, _whole

_TAGS = {"r": "r={}", "alpha": "a={:g}", "beta": "b={:g}", "penalty": "pen={:g}"}

DIVERGENCE_RSE = 1e6
RGS_RECOMPUTE_EVERY = 10 ** 4
DRAW_BLOCK = 1 << 14  # uniforms the lanes of a run draw between them at a time
BATCH = 32  # the most iterations run advances its lanes between two stop tests


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
        if self.rse_tol is not None and not 0.0 < self.rse_tol < math.inf:
            raise ValueError("invalid parameter: rse_tol must be " + (
                "positive" if self.rse_tol <= 0.0 else "finite and positive"))
        for name in ("max_row_actions", "max_iterations"):
            value = getattr(self, name)
            if value is not None and (_whole(value) is None or value < 1):
                raise ValueError(f"invalid parameter: {name} must be a whole number >= 1")


@dataclass(frozen=True)
class SolverConfig:
    """Method selection plus every tunable the methods share.

    A tunable its method does not read (see ``_METHODS``) is reset to its
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
            if f.name in _TAGS and f.name not in _METHODS[self.method].reads:
                object.__setattr__(self, f.name, f.default)

    def label(self) -> str:
        tags = [_TAGS[name].format(getattr(self, name))
                for name in _METHODS[self.method].reads]
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


# a block's rows: SolverState arrays, parameters, row actions an iteration,
# streams, drawn indices; take skips z_last, which the next update rewrites
# before any exit
_LANE_ARRAYS = ("x", "x_prev", "z_aux", "mu", "residual", "z_last")
_PER_LANE = _LANE_ARRAYS[:-1] + ("r", "alpha", "stay", "beta", "penalty", "per", "rngs", "drawn")


# the lanes after one iteration of a batch: its count, cursor and lane arrays
_snap = attrgetter("k", "cyclic_cursor", *_LANE_ARRAYS)


def _lane_state(snap: tuple, i: int, row_actions: int) -> SolverState:
    """Lane ``i`` of a ``_snap`` tuple as a SolverState of its own arrays."""
    k, cyclic_cursor, *blocks = snap
    arrays = {name: rows[i].copy() for name, rows in zip(_LANE_ARRAYS, blocks)
              if rows is not None}
    return SolverState(k=k, row_actions=row_actions, cyclic_cursor=cyclic_cursor, **arrays)


class _Lanes:
    """Trials of one method in lockstep, one lane per row of each block.

    Lanes are sorted by ``r``, highest first, so reflection j of an iteration
    acts on the leading ``prefix[j]`` lanes.  Each lane draws from its own
    stream, about ``size`` uniforms for all lanes at a time, into its own
    stretch of one flat block; PCG64 fills ``random(out=...)`` exactly as it
    draws ``random(size)`` or ``size`` scalars.  The averaging weights are
    blocks of the shape of ``x``; a lane exit compacts them with every other
    per-lane block, the drawn indices included."""

    def __init__(self, problem: Problem, start: SolverState, configs, rngs, size: int):
        # every lane starts from its own copy of start's rows
        count, method = len(configs), _METHODS[configs[0].method]
        self.k, self.cyclic_cursor = start.k, start.cyclic_cursor
        for name in ("x", "z_aux", "mu", "residual"):
            row = getattr(start, name)
            setattr(self, name, None if row is None else row[None].repeat(count, 0))
        # a method with momentum carries the previous iterate, x at a cold start
        self.x_prev = (start.x if start.x_prev is None else start.x_prev)[None].repeat(
            count, 0) if "beta" in method.reads else None
        # a column of each parameter the method reads, but x's shape for the
        # averaging weights: a product with a column runs one loop per row
        for name in _TAGS:
            col = np.array([[getattr(c, name)] for c in configs]) \
                if name in method.reads else None
            setattr(self, name, col if col is None or name in ("r", "penalty")
                    else col.repeat(problem.A.n, 1))
        self.stay = None if self.alpha is None else 1.0 - self.alpha
        self.samplers = [getattr(problem, f"{name}_sampler") for name in method.samplers]
        # a sampled method draws one index per row action
        self.per = np.array([method.per(c, problem.A) for c in configs])
        self.rngs = np.fromiter(rngs, object)  # an array, so ``take`` applies
        self.size, self.z_last, self.drawn = size, None, None
        self._derive()

    def _derive(self):
        # the fields that follow from the lanes' parameters; where each lane's
        # row starts in the flat x and z_aux (reshaping them must not copy)
        assert self.x.flags.c_contiguous
        self.x_at, self.z_at = (None if rows is None else np.arange(0, rows.size, rows.shape[1])
                                for rows in (self.x, self.z_aux))
        if self.r is not None:
            # prefix[j] = the number of lanes with r > j
            self.prefix = np.bincount(self.r[:, 0])[:0:-1].cumsum()[::-1].tolist()

    def take(self, keep: np.ndarray):
        """Keep only the lanes ``keep``, an index array, in that order."""
        for name in _PER_LANE:
            if (rows := getattr(self, name)) is not None:
                setattr(self, name, rows.take(keep, 0))
        self._derive()

    def draw(self):
        """Each lane's indices for its next iteration, a row each; the
        streams for a method without samplers (rp-admm draws permutations)."""
        if not self.samplers:
            return self.rngs
        if self.drawn is None or self.i == self.drawn.shape[1]:
            self._refill()
        self.i += 1
        return self.drawn[:, self.i - 1]

    def _refill(self):
        # lane t fills its own stretch of u, iters * per[t] draws, iteration
        # by iteration; only real draws are looked up, those of a sampler
        # every len(samplers)-th (rek: a column, then a row)
        per, k = self.per.tolist(), len(self.samplers)
        iters = max(1, self.size // sum(per))
        u, start = np.empty(iters * sum(per)), 0
        for rng, c in zip(self.rngs, per):
            rng._gen.random(out=u[start:start + iters * c])  # the stream Rng.uniform draws
            start += iters * c
        drawn = self.samplers[0].lookup(u) if k == 1 else np.stack(
            [s.lookup(u[p::k]) for p, s in enumerate(self.samplers)], -1).reshape(-1)
        # draw j of iteration s of lane t, for j below width, the most draws of
        # any lane (lanes are sorted by r); a lane with fewer draws repeats its
        # last in the places the update never reads
        c, width = self.per[:, None, None], per[0]
        self.drawn = drawn[iters * (c.cumsum(0) - c) + c * np.arange(iters)[:, None]
                           + np.minimum(np.arange(width), c - 1)]
        self.i = 0


# Updates: one iteration of every lane, given the indices it drew.  Dots are
# np.vecdot over rows gathered from A or Aᵀ (A.columns), which sums each lane
# as ndarray.dot does (both call the BLAS ddot), and each elementwise operation
# keeps the order of the one-trial formula, so no lane's bits depend on others.
# Each but rp-admm's, whose batches are one sweep, puts its results in new
# arrays (``x - a``, not ``x -= a``: the same IEEE operation), never in a lane
# array that a batch's snapshot may hold.


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
    if lanes.beta is not None:
        move = x - lanes.x_prev
        move *= lanes.beta
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
    lanes.x = lanes.x - a
    lanes.k += 1


def _rek_update(lanes: _Lanes, problem: Problem, drawn):
    j, i = drawn.T
    col, z = problem.A.columns.take(j, 0), lanes.z_aux
    lanes.z_aux = z = z - col * (np.vecdot(col, z) / problem.A.col_norms_sq[j])[:, None]
    _project(lanes, problem, i, z.reshape(-1)[lanes.z_at + i])


def _residuals(problem: Problem, x) -> np.ndarray:
    # one matrix-vector product per lane, as ``A @ x`` computes it
    return np.matmul(problem.A.entries, x[:, :, None])[:, :, 0] - problem.b


def _rgs_update(lanes: _Lanes, problem: Problem, drawn):
    # exact minimization along coordinate j of each lane, residual kept
    j, res = drawn[:, 0], lanes.residual
    col = problem.A.columns.take(j, 0)
    delta = -np.vecdot(col, res) / problem.A.col_norms_sq[j]
    lanes.x = lanes.x.copy()
    lanes.x.reshape(-1)[lanes.x_at + j] += delta
    lanes.residual = res + col * delta[:, None]
    lanes.k += 1
    if lanes.k % RGS_RECOMPUTE_EVERY == 0:
        # cap incremental drift with a periodic full recompute
        lanes.residual = _residuals(problem, lanes.x)


def _rp_admm_update(lanes: _Lanes, problem: Problem, rngs):
    # lane t minimizes along coordinates j[:, t] in turn, skipping a zero
    # column; lanes share nothing, so step s takes each lane's s-th live one
    A, res, width = problem.A, lanes.residual, len(rngs)
    j = np.stack([rng.permutation(A.n) for rng in rngs], 1)
    live = A.col_norms_sq[j] != 0.0
    for _ in range(np.count_nonzero(~live.all(1))):
        warnings.warn("rp-admm: skipping zero column", stacklevel=3)
    j = j.T[live.T].reshape(width, -1).T
    cn, delta = A.col_norms_sq[j], np.empty(j.shape)
    # only the residual carries a step to the next: columns and multiplier dots
    # come DRAW_BLOCK elements at a time; x, each element moved once at most,
    # takes the moves at the end
    mu_over_pen, steps = lanes.mu / lanes.penalty, max(1, DRAW_BLOCK // (A.m * width))
    for s0 in range(0, len(j), steps):
        cols = A.columns[j[s0:s0 + steps]]
        for s, col, dot in zip(range(s0, len(j)), cols, np.vecdot(cols, mu_over_pen)):
            step = delta[s] = -(np.vecdot(col, res) - dot) / cn[s]
            res += col * step[:, None]
    lanes.x.reshape(-1)[j + lanes.x_at] += delta
    # refresh before the multiplier step so incremental drift cannot build up
    lanes.residual = _residuals(problem, lanes.x)
    lanes.mu -= lanes.residual
    lanes.k += 1


def _r_sets(lanes: _Lanes, problem: Problem, drawn):
    _dr_update(lanes, problem, [drawn[:c, j] for j, c in enumerate(lanes.prefix)])


# a method: the SolverConfig fields it reads, in label order; its update of
# every lane, given the indices drawn; the samplers of one iteration's draws
# (rrdr draws r rows); its row actions an iteration, from the config and A.
# rrdr runs the mrrdr update at beta = 0
_Method = namedtuple("_Method", "reads update samplers per")
_METHODS = {
    "rrdr": _Method(("r", "alpha"), _r_sets, ("row",), lambda c, A: c.r),
    "mrrdr": _Method(("r", "alpha", "beta"), _r_sets, ("row",), lambda c, A: c.r),
    "rk": _Method((), lambda lanes, problem, drawn: _project(lanes, problem, drawn[:, 0]),
                  ("row",), lambda c, A: 1),
    "rek": _Method((), _rek_update, ("col", "row"), lambda c, A: 2),
    "rgs": _Method((), _rgs_update, ("col",), lambda c, A: 1),
    "cyclic-dr": _Method(("alpha",), _cyclic_dr, (), lambda c, A: 2),
    "det-rsets-dr": _Method(("alpha",), lambda lanes, problem, drawn: _dr_update(
        lanes, problem, range(problem.A.m)), (), lambda c, A: A.m),
    "rp-admm": _Method(("penalty",), _rp_admm_update, (), lambda c, A: A.n)}
METHODS = tuple(_METHODS)


def _step(state: SolverState, problem: Problem, config: SolverConfig,
          rng: Rng) -> SolverState:
    """One iteration of ``config.method`` on one trial's state, as ``run``
    makes it, with the indices drawn from ``rng`` one call at a time."""
    lanes = _Lanes(problem, state, [config], [rng], 0)
    _METHODS[config.method].update(lanes, problem, lanes.draw())
    vars(state).update(vars(_lane_state(_snap(lanes), 0, state.row_actions + lanes.per.item(0))))
    return state


# the public step function of each method; each applies its config's update
rrdr_step = mrrdr_step = rk_step = rek_step = rgs_step = _step
cyclic_dr_step = det_rsets_dr_step = rp_admm_step = _step


def init_state(problem: Problem, config: SolverConfig) -> SolverState:
    """Per-method state setup from the problem's start point."""
    x = problem.x0.astype(np.float64).copy()
    state = SolverState(x=x)
    if "beta" in _METHODS[config.method].reads:
        state.x_prev = x.copy()  # cold start: previous iterate equals x0
    if config.method == "rek":
        state.z_aux = problem.b.astype(np.float64).copy()
    if config.method in ("rgs", "rp-admm"):
        state.residual = problem.A.entries @ x - problem.b
    if config.method == "rp-admm":
        state.mu = np.zeros(problem.A.m)
    return state


def _record(problem: Problem, metrics_fn, k: int, row_actions: int, x, rse: float):
    resid = problem.A.entries @ x - problem.b
    return TraceRecord(k, row_actions, rse, float(np.sqrt(resid @ resid)),
                       *(() if metrics_fn is None else metrics_fn(x)))


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

    Each trial is a lane of the block, and its stop bounds and trace cadence
    are lane arrays beside the block's rows.  The lanes advance in batches of
    at most ``BATCH`` iterations and about ``DRAW_BLOCK // 4`` iterate
    entries (rp-admm: one sweep), which end where a budget or a trace
    record falls due; each iteration keeps references to its lane arrays.
    After a batch, a lane is checked at the first iteration where its RSE may
    cross a bound or a budget or trace record falls due; it ends there, in
    this order, on a non-finite RSE, on an RSE above ``DIVERGENCE_RSE``,
    below ``rse_tol`` or on a spent budget, and otherwise writes a trace
    record.  What a lane ran past its end is dropped.
    """
    if not configs or any(c.method != configs[0].method for c in configs):
        raise ValueError("run takes one or more configs of one method")
    method = configs[0].method
    # a method that does not read r holds r = 1
    if any(c.r % 2 == 0 for c in configs) and svd_small(problem.A).rank < 2:
        raise ValueError("even-r requires rank >= 2")
    if problem.A.zero_rows and method in ("cyclic-dr", "det-rsets-dr"):
        raise ValueError("degenerate hyperplane: zero row in cyclic sweep")

    order = sorted(range(len(configs)), key=lambda i: -configs[i].r)
    group = [configs[i] for i in order]
    start = init_state(problem, group[0])
    d = start.x - problem.x0_star
    den = float(d @ d)  # finite, as Problem checks
    rse0 = 1.0 if den > 0.0 else 0.0
    # each config's trace, by its place in the call, from one k = 0 record
    first = _record(problem, metrics_fn, 0, 0, start.x, rse0)
    records = {p: [first] for p in order}
    lanes = _Lanes(problem, start, group, [Rng(c.seed) for c in group], DRAW_BLOCK)
    # each lane's stop state: its config's place in the call; its RSE bound
    # (RSE is never negative, so no tolerance is a bound of 0); the first
    # iteration at which a budget is spent; and the row actions between its
    # trace records and at its next one (inf: none), as floats, since a bound
    # past 2**64 next to an inf made an object array that np.ceil overflowed
    budget = np.array([(c.stop.max_iterations or math.inf,
                        c.stop.max_row_actions or math.inf) for c in group], float)
    pos, tol = np.array(order), np.array([c.stop.rse_tol or 0.0 for c in group])
    end = np.minimum(budget[:, 0], np.ceil(budget[:, 1] / lanes.per))
    every = np.array([c.trace_every or math.inf for c in group], float)
    trace = every.copy()
    update = _METHODS[method].update
    results, ended = [None] * len(configs), dict.fromkeys(
        np.flatnonzero((rse0 < tol) | (den == 0.0)).tolist(), "converged")
    # a batch's snapshots and their RSEs, a row an iteration, and the
    # snapshot at which each lane was tested; the start is a batch of one
    snaps, rse, at = [_snap(lanes)], np.full((1, len(group)), rse0), np.zeros(len(group), int)
    # x0_star as many times as a batch has iterate rows at most (see cap): a
    # subtraction without broadcast took 16 against 23 us at 500 lanes of n = 50
    x0_star = np.tile(problem.x0_star, (max(len(group), (DRAW_BLOCK // 4) // problem.A.n), 1))
    while True:
        # results of the lanes that ended, and a block of the others; no name
        # but snaps holds a snapshot, whose blocks would outlive the lane exits
        for i, status in ended.items():
            p, k, r = pos[i], snaps[at[i]][0], float(rse[at[i], i])
            state = _lane_state(snaps[at[i]], i, k * int(lanes.per[i]))
            if records[p][-1].k != k:
                records[p].append(_record(problem, metrics_fn, k, state.row_actions,
                                          state.x, r))
            results[p] = RunResult(status, k, state.row_actions, r, state.x,
                                   records[p], state)
        if len(ended) == len(pos):
            return Runs(results)
        if ended:
            snaps = None  # so that take frees each old block once it is copied
            stays = np.ones(len(pos), bool)
            stays[list(ended)] = False
            keep = np.flatnonzero(stays)
            lanes.take(keep)
            pos, tol, end, every, trace = (a[keep] for a in (pos, tol, end, every, trace))
        # the first iteration at which each lane's budget is spent or its
        # next record falls due, the largest RSE bound of the lanes left and
        # a batch's most iterations, which a lane may run past its end: an
        # mrrdr error grows at most 3-fold an iteration, but an rp-admm sweep
        # grows a diverging error about 1/penalty-fold, so it tests each sweep
        due = np.minimum(end, np.ceil(trace / lanes.per))
        next_due, top, flagged, ended = float(due.min()), tol.max(), [], {}
        cap = 1 if method == "rp-admm" else min(BATCH, max(1, (DRAW_BLOCK // 4) // lanes.x.size))
        while len(flagged) == 0:
            snaps = []
            for _ in range(cap if lanes.k + cap <= next_due else int(next_due) - lanes.k):
                update(lanes, problem, lanes.draw())
                snaps.append(_snap(lanes))
            # the iterates, snap[2], less x0_star
            d = (np.concatenate([snap[2] for snap in snaps]) if len(snaps) > 1
                 else snaps[0][2]) - x0_star[:len(snaps) * len(pos)]
            rse = np.vecdot(d, d)
            rse /= den
            # unless these fail, no lane can end or need a record
            if lanes.k < next_due and np.maximum.reduce(rse) <= DIVERGENCE_RSE \
                    and np.minimum.reduce(rse) >= top:
                continue
            # each lane's flags, an iteration a row; a budget or a record
            # falls due only at a batch's last iteration
            rse = rse.reshape(len(snaps), -1)
            flags = ~(rse <= DIVERGENCE_RSE) | (rse < tol)
            flags[-1] |= due <= lanes.k
            flagged, at = np.flatnonzero(flags.any(0)), flags.argmax(0)
        for i in flagged:
            # a lane flagged before the batch's last iteration ends there
            k, r = snaps[at[i]][0], float(rse[at[i], i])
            if not math.isfinite(r):
                ended[i] = "numerical-divergence"
            elif r > DIVERGENCE_RSE:
                ended[i] = "diverged"
            elif r < tol[i]:
                ended[i] = "converged"
            elif k >= end[i]:
                ended[i] = "budget-exhausted"
            else:  # a trace record is due, at the batch's last iteration
                actions = k * int(lanes.per[i])
                records[pos[i]].append(_record(problem, metrics_fn, k, actions,
                                               lanes.x[i], r))
                trace[i] = (actions // every[i] + 1) * every[i]
