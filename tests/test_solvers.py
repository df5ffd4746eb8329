"""Solver tests: config validation, fixed points, method cross-checks,
trajectory invariants, the run driver, and terminal statuses."""

import math
import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from rdr_lab.linalg import Matrix, projected_solution
from rdr_lab.problems import (
    Problem,
    synthetic_problem,
    three_lines_failure_problem,
)
from rdr_lab.sampling import Rng
from rdr_lab.solvers import (
    _LANE_ARRAYS,
    _METHODS,
    BATCH,
    DIVERGENCE_RSE,
    DRAW_BLOCK,
    METHODS,
    RunResult,
    SolverConfig,
    SolverState,
    StopRule,
    _Lanes,
    cyclic_dr_step,
    init_state,
    mrrdr_step,
    rek_step,
    rgs_step,
    rk_step,
    rp_admm_step,
    rrdr_step,
    run,
)


def _identity_problem(n=2, seed=0):
    x_star = Rng(seed).normal(n)
    x_star /= np.linalg.norm(x_star)
    return Problem(A=Matrix(np.eye(n)), b=x_star.copy(), x_star=x_star,
                   x0=np.zeros(n), x0_star=x_star.copy(), label="identity")


def _at_solution(problem):
    """Clone of the problem started exactly at its projected solution."""
    return Problem(A=problem.A, b=problem.b, x_star=problem.x_star,
                   x0=problem.x0_star.copy(), x0_star=problem.x0_star.copy(),
                   label=problem.label)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        SolverConfig(method="sor")
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(method="rrdr", alpha=1.0)
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(method="rrdr", alpha=0.0)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(method="mrrdr", beta=-0.1)
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
        SolverConfig(method="mrrdr", beta=1.0)
    with pytest.raises(ValueError, match="r must be"):
        SolverConfig(method="rrdr", r=0)
    with pytest.raises(ValueError, match="penalty"):
        SolverConfig(method="rp-admm", penalty=0.0)
    with pytest.raises(ValueError, match="trace_every"):
        SolverConfig(method="rk", trace_every=-1)


def test_config_holds_only_what_its_method_reads():
    rk = SolverConfig(method="rk", r=3, alpha=0.2, beta=0.4, penalty=2.0)
    assert rk == SolverConfig(method="rk")
    assert hash(rk) == hash(SolverConfig(method="rk"))
    assert SolverConfig(method="rrdr", beta=0.4) == SolverConfig(method="rrdr")
    # validation comes first: a bad value is rejected even where unread
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(method="rk", alpha=1.0)


def test_config_r_and_seed_are_whole_numbers():
    # r and seed are kept as ints: r=2.0 runs, labels and hashes as r=2
    stop = StopRule(rse_tol=None, max_iterations=20)
    cfg = SolverConfig(method="mrrdr", r=2.0, seed=7.0, stop=stop)
    want = SolverConfig(method="mrrdr", r=2, seed=7, stop=stop)
    assert cfg == want and hash(cfg) == hash(want)
    assert type(cfg.r) is int and type(cfg.seed) is int
    assert cfg.label() == "mrrdr[r=2,a=0.5,b=0]"
    problem = synthetic_problem(12, 5, seed=3)
    _assert_same_trial(run(problem, cfg)[0], run(problem, want)[0])
    for r in (2.5, math.inf, math.nan, "2"):
        with pytest.raises(ValueError, match="r must be a positive integer"):
            SolverConfig(method="rrdr", r=r)
    # a seed that is not a whole number, or lies outside [0, 2**64), would
    # run another trajectory or fail only inside run
    for seed in (1.5, -1, 2 ** 64, math.inf, "3"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SolverConfig(method="rk", seed=seed)
    (res,) = run(problem, SolverConfig(method="rk", seed=2 ** 64 - 1, stop=stop))
    assert res.iterations == 20


def test_stop_rule_needs_a_bound():
    with pytest.raises(ValueError, match="no finite stopping bound"):
        StopRule(rse_tol=None)
    with pytest.raises(ValueError, match="rse_tol"):
        StopRule(rse_tol=0.0)
    StopRule(rse_tol=None, max_iterations=5)  # fine


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_stop_rule_rse_tol_is_finite_and_positive(tol):
    # rse_tol = inf once ended every trial converged at k = 0 without a step
    with pytest.raises(ValueError, match="rse_tol must be finite and positive"):
        StopRule(rse_tol=tol)


@pytest.mark.parametrize("name", ["max_iterations", "max_row_actions"])
@pytest.mark.parametrize("value", [0, -3, 2.5, math.inf, math.nan, "5"])
def test_stop_rule_budgets_are_whole_numbers_of_at_least_one(name, value):
    # a budget of 0 or -3 once ran one iteration and ended budget-exhausted
    with pytest.raises(ValueError, match=f"{name} must be a whole number >= 1"):
        StopRule(rse_tol=None, **{name: value})
    assert getattr(StopRule(rse_tol=None, **{name: 1.0}), name) == 1


def test_config_trace_every_is_a_whole_number():
    # 2.5 once wrote records at k = 3 and 5
    for every in (2.5, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="trace_every must be a whole number >= 0"):
            SolverConfig(method="rk", trace_every=every)


def test_config_penalty_is_finite_and_positive():
    # nan once ended numerical-divergence after one iteration
    for penalty in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="penalty must be finite and positive"):
            SolverConfig(method="rp-admm", penalty=penalty)


def test_config_labels():
    assert SolverConfig(method="rk").label() == "rk"
    assert SolverConfig(method="rrdr", r=2).label() == "rrdr[r=2,a=0.5]"
    assert SolverConfig(method="mrrdr", r=3, alpha=0.5, beta=0.4).label() \
        == "mrrdr[r=3,a=0.5,b=0.4]"
    assert SolverConfig(method="rp-admm").label() == "rp-admm[pen=1]"


# ---------------------------------------------------------------------------
# fixed points: every method holds the solution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
def test_solution_is_fixed_point(method):
    from rdr_lab import solvers

    step = getattr(solvers, method.replace("-", "_") + "_step")
    base = synthetic_problem(12, 5, seed=96)
    problem = _at_solution(base)
    cfg = SolverConfig(method=method, r=2, alpha=0.5, beta=0.3, seed=7,
                       stop=StopRule(rse_tol=None, max_iterations=3))
    state = init_state(problem, cfg)
    if method == "rek":
        # the auxiliary sequence starts at b and moves x until it drains;
        # the joint fixed point is (x*, z=0)
        state.z_aux = np.zeros(problem.A.m)
    rng = Rng(7)
    scale = np.linalg.norm(problem.x0_star) + 1.0
    for _ in range(3):
        step(state, problem, cfg, rng)
    assert np.linalg.norm(state.x - problem.x0_star) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# cross-method reductions
# ---------------------------------------------------------------------------


def test_rk_equals_r1_half_relaxation():
    problem = synthetic_problem(20, 8, seed=14)
    kwargs = dict(seed=5, stop=StopRule(rse_tol=None, max_iterations=200))
    (res_rk,) = run(problem, SolverConfig(method="rk", **kwargs))
    (res_dr,) = run(problem, SolverConfig(method="rrdr", r=1, alpha=0.5, **kwargs))
    scale = np.linalg.norm(problem.x0_star)
    assert np.abs(res_rk.x - res_dr.x).max() <= 1e-9 * scale
    assert res_rk.row_actions == res_dr.row_actions


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_method_identities(seed):
    # rrdr is mrrdr at beta = 0, bit for bit; rk is rrdr at r = 1 and
    # alpha = 1/2 up to rounding, as averaging x with its reflection at 1/2
    # is the Kaczmarz projection, and both draw one row an iteration.  The
    # two formulas round apart by a few ulps (1 to 1.5 eps on these seeds)
    problem = synthetic_problem(200, 50, seed=seed)
    stop = StopRule(rse_tol=1e-12, max_iterations=20_000)
    kwargs = dict(r=2, alpha=0.6, seed=seed, stop=stop, trace_every=500)
    (dr,) = run(problem, SolverConfig(method="rrdr", **kwargs))
    (mom,) = run(problem, SolverConfig(method="mrrdr", beta=0.0, **kwargs))
    assert (dr.status, dr.iterations, dr.records) == (mom.status, mom.iterations, mom.records)
    assert dr.x.tobytes() == mom.x.tobytes()
    (rk,) = run(problem, SolverConfig(method="rk", seed=seed, stop=stop))
    (dr,) = run(problem, SolverConfig(method="rrdr", r=1, alpha=0.5, seed=seed, stop=stop))
    assert rk.status == dr.status == "converged" and rk.iterations == dr.iterations
    assert np.abs(rk.x - dr.x).max() <= 4 * np.finfo(np.float64).eps


def test_momentum_beta_zero_bitwise_reduction():
    problem = synthetic_problem(15, 6, seed=23)
    kwargs = dict(r=2, alpha=0.6, seed=11,
                  stop=StopRule(rse_tol=None, max_iterations=150))
    (res_a,) = run(problem, SolverConfig(method="rrdr", **kwargs))
    (res_b,) = run(problem, SolverConfig(method="mrrdr", beta=0.0, **kwargs))
    np.testing.assert_array_equal(res_a.x, res_b.x)
    assert res_a.rse == res_b.rse


@pytest.mark.parametrize("method", METHODS)
def test_run_matches_public_step_replay(method):
    # the per-call step functions are the reference for run(): k steps
    # on one stream give the run's iterate bit for bit.  A lone lane draws
    # DRAW_BLOCK uniforms at a time, so k crosses a refill of its block;
    # cyclic-dr, det-rsets-dr and rp-admm draw no uniforms.
    from rdr_lab import solvers

    step = getattr(solvers, method.replace("-", "_") + "_step")
    draws = {"rrdr": 3, "mrrdr": 3, "rk": 1, "rgs": 1, "rek": 2}.get(method)
    k = solvers.DRAW_BLOCK // draws + 7 if draws else 107
    problem = synthetic_problem(12, 5, seed=64)
    cfg = SolverConfig(method=method, r=3, alpha=0.5, beta=0.3, seed=2718,
                       stop=StopRule(rse_tol=None, max_iterations=k),
                       trace_every=50)
    (res,) = run(problem, cfg)
    state = init_state(problem, cfg)
    rng = Rng(cfg.seed)
    for _ in range(k):
        step(state, problem, cfg, rng)
    assert res.iterations == state.k == k
    assert res.row_actions == state.row_actions
    np.testing.assert_array_equal(res.x, state.x)
    _assert_same_state(res.state, state)


@pytest.mark.parametrize("method", ("rgs", "rek", "rp-admm"))
def test_step_on_a_strided_state(method):
    # rgs and rp-admm write x, and rek reads z_aux, through a flat index over
    # the lane block, which a strided state array must not lose; a step on it
    # gives the bits of a step on a contiguous copy
    from rdr_lab import solvers

    problem = synthetic_problem(12, 5, seed=64)
    cfg = SolverConfig(method=method, seed=7)
    want, got = init_state(problem, cfg), init_state(problem, cfg)
    for name in ("x", "z_aux", "residual", "mu"):
        if (rows := getattr(got, name)) is not None:
            setattr(got, name, np.repeat(rows, 2)[::2])
    step = getattr(solvers, method.replace("-", "_") + "_step")
    rng_a, rng_b = Rng(cfg.seed), Rng(cfg.seed)
    for _ in range(3):
        step(want, problem, cfg, rng_a)
        step(got, problem, cfg, rng_b)
    for name in ("x", "z_aux", "residual", "mu"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _assert_same_trial(got, want):
    assert (got.status, got.iterations, got.row_actions) \
        == (want.status, want.iterations, want.row_actions)
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.rse).tobytes() == np.float64(want.rse).tobytes()
    assert got.records == want.records
    _assert_same_state(got.state, want.state)


def _assert_same_state(got, want):
    assert got.cyclic_cursor == want.cyclic_cursor
    for name in ("x_prev", "z_aux", "mu", "residual", "z_last"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or a.tobytes() == b.tobytes(), name


def _mixed_group(method):
    """Configs of one method that differ in every field run() reads per
    lane, and end converged, diverged or budget-exhausted at different
    iterations."""
    stops = [StopRule(rse_tol=1e-6, max_row_actions=40_000),
             StopRule(rse_tol=None, max_iterations=37),
             StopRule(rse_tol=1e-2, max_row_actions=5_000),
             StopRule(rse_tol=1e-12, max_row_actions=123),
             StopRule(rse_tol=1e-4, max_iterations=60)]
    configs = [SolverConfig(method=method, r=1 + i % 3, alpha=0.3 + 0.1 * i,
                            beta=0.1 * (i % 3), penalty=0.5 + i, seed=100 + i,
                            stop=stop, trace_every=(0, 7, 10, 1, 25)[i])
               for i, stop in enumerate(stops)]
    if method == "mrrdr":
        configs.append(SolverConfig(method="mrrdr", r=2, alpha=0.9, beta=0.95,
                                    seed=3, trace_every=5,
                                    stop=StopRule(rse_tol=1e-12, max_iterations=10_000)))
    return configs


def _zero_column_problem():
    # the 20x8 system with column 3 zeroed, which rp-admm skips with a warning
    arr = synthetic_problem(20, 8, seed=1).A.entries.copy()
    arr[:, 3] = 0.0
    x_star = Rng(4).normal(8)
    b = arr @ x_star
    return Problem(A=Matrix(arr), b=b, x_star=x_star, x0=np.zeros(8),
                   x0_star=projected_solution(arr, b, np.zeros(8)))


@pytest.mark.parametrize("method, make_problem", [
    *(pytest.param(method, lambda: synthetic_problem(20, 8, seed=1), id=method)
      for method in METHODS),
    # 1000 rows: an rp-admm sweep gathers its columns in several chunks,
    # of other sizes alone than in the group
    pytest.param("rp-admm", lambda: synthetic_problem(1000, 40, seed=1), id="rp-admm-chunks"),
    pytest.param("rp-admm", _zero_column_problem, id="rp-admm-zero-column")])
def test_grouped_trials_match_lone_runs(method, make_problem):
    # a trial's result does not depend on the other trials of its run call
    problem = make_problem()
    configs = _mixed_group(method)
    warns = pytest.warns(UserWarning, match="zero column") \
        if not problem.A.col_norms_sq.all() else nullcontext()
    with warns:
        runs = run(problem, *configs)
    assert len(runs) == len(configs)
    for cfg, res in zip(configs, runs):
        with warns:
            (alone,) = run(problem, cfg)
        _assert_same_trial(res, alone)
    statuses = [res.status for res in runs]
    assert {"converged", "budget-exhausted"} <= set(statuses)
    assert len({res.iterations for res in runs}) >= 4
    if method == "mrrdr":
        assert "diverged" in statuses
    assert runs.iterations == sum(res.iterations for res in runs)
    assert runs.row_actions == sum(res.row_actions for res in runs)


@pytest.mark.parametrize("method", ("rrdr", "mrrdr", "rk", "rek", "rgs", "rp-admm"))
def test_draw_block_size_never_touches_bits(method, monkeypatch):
    # how many iterations a refill covers must not show in any trial: lane
    # exits compact the drawn block, which small blocks refill often,
    # mixed r gathers each lane's draws from the flat block, and rek looks
    # up two samplers; rp-admm gathers its columns in chunks of the same size
    from rdr_lab import solvers

    problem = synthetic_problem(20, 8, seed=1)
    configs = _mixed_group(method)
    want = run(problem, *configs)
    for size in (1, 5, 64):
        monkeypatch.setattr(solvers, "DRAW_BLOCK", size)
        for got, res in zip(run(problem, *configs), want):
            _assert_same_trial(got, res)


def _mixed_r_group():
    """mrrdr lanes of six r values, with and without momentum, that converge
    or run out of budget at different iterations between trace records."""
    return [SolverConfig(method="mrrdr", r=r, alpha=0.5, beta=beta, seed=10 * r + i,
                         trace_every=(0, 3, 40)[i % 3],
                         stop=StopRule(rse_tol=1e-8, max_row_actions=(600, 4_000)[i % 2]))
            for i, (r, beta) in enumerate((r, beta) for r in (1, 2, 3, 5, 8, 20)
                                          for beta in (0.0, 0.4))]


def _overflowing_problem():
    """A system scaled to |x0_star|^2 = 1e306: a divergent momentum cell's
    squared error overflows once rse passes about 180, far below
    DIVERGENCE_RSE."""
    p = synthetic_problem(10, 4, seed=2)
    s = 1e153
    return Problem(A=p.A, b=p.b * s, x_star=p.x_star * s, x0=p.x0,
                   x0_star=p.x0_star * s)


# rp-admm tests its stop rules every sweep, so it runs no batch to compare
BATCHED = [method for method in METHODS if method != "rp-admm"]


@pytest.mark.parametrize("make_case", [
    *(pytest.param(lambda method=method: (synthetic_problem(20, 8, seed=1),
                                          _mixed_group(method)), id=method)
      for method in BATCHED),
    pytest.param(lambda: (synthetic_problem(20, 8, seed=1), _mixed_r_group()),
                 id="mrrdr-mixed-r"),
    # lanes that end on an overflow run on with inf and nan to the batch end
    pytest.param(lambda: (_overflowing_problem(), [
        SolverConfig(method="mrrdr", r=r, alpha=0.9, beta=0.8, seed=r + i,
                     trace_every=25 * (r == 3),
                     stop=StopRule(rse_tol=1e-12, max_iterations=100))
        for i, r in enumerate((1, 1, 2, 3))]),
        id="mrrdr-overflow", marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered", "ignore:invalid value encountered"))])
def test_batch_size_never_touches_bits(make_case, monkeypatch):
    # run tests its stop rules once per batch of iterations; a lane that
    # ends inside a batch takes the iteration it ended at, whatever the
    # batch size, and BATCH = 1 tests every iteration
    from rdr_lab import solvers

    problem, configs = make_case()
    monkeypatch.setattr(solvers, "BATCH", 1)
    want = run(problem, *configs)
    for size in (2, 7, BATCH):
        monkeypatch.setattr(solvers, "BATCH", size)
        for got, res in zip(run(problem, *configs), want):
            _assert_same_trial(got, res)


@pytest.mark.parametrize("method", BATCHED)
def test_updates_never_write_into_lane_arrays(method):
    # a batch keeps references to each iteration's lane arrays, which hold
    # that iteration's values only if no later update writes into them
    problem = synthetic_problem(20, 8, seed=1)
    configs = sorted(_mixed_group(method)[:3], key=lambda c: -c.r)
    lanes = _Lanes(problem, init_state(problem, configs[0]), configs,
                   [Rng(c.seed) for c in configs], DRAW_BLOCK)
    update = _METHODS[method].update
    for _ in range(3):
        kept = [(name, rows, rows.tobytes()) for name in _LANE_ARRAYS
                if (rows := getattr(lanes, name)) is not None]
        update(lanes, problem, lanes.draw())
        for name, rows, before in kept:
            assert rows.tobytes() == before, name


def test_diverging_lanes_end_inside_a_batch_without_overflow(monkeypatch):
    # the lanes of a batch run on past an exit; an mrrdr iterate's error
    # grows at most 3-fold an iteration, so on a system scaled to
    # |x0 - x0_star|^2 = 1e200 a lane that diverges inside a batch reaches
    # no overflow before the batch ends, and ends where BATCH = 1 ends it
    from rdr_lab import solvers

    p = synthetic_problem(20, 8, seed=1)
    s = 1e100 / np.linalg.norm(p.x0_star - p.x0)
    problem = Problem(A=p.A, b=p.b * s, x_star=p.x_star * s, x0=p.x0,
                      x0_star=p.x0_star * s)
    configs = [SolverConfig(method="mrrdr", r=2, alpha=0.9, beta=0.95, seed=seed,
                            stop=StopRule(rse_tol=1e-12, max_iterations=10_000))
               for seed in (3, 4, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = run(problem, *configs)
        monkeypatch.setattr(solvers, "BATCH", 1)
        want = run(problem, *configs)
    for got, res in zip(runs, want):
        _assert_same_trial(got, res)
        assert got.status == "diverged"
        # 3 lanes of n = 8 run batches of BATCH iterations from k = 0
        assert got.iterations % BATCH != 0


def test_rp_admm_lanes_end_without_overflow():
    # a diverging rp-admm sweep grows the squared error about
    # 1/penalty^2-fold, 1e12 at a penalty of 1e-6, so the 31 sweeps of a
    # batch past an exit would overflow; run tests every rp-admm sweep
    problem = synthetic_problem(20, 8, seed=1)
    configs = [SolverConfig(method="rp-admm", penalty=1e-6, seed=seed,
                            stop=StopRule(rse_tol=1e-12, max_iterations=3000))
               for seed in (0, 1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = run(problem, *configs)
    assert [(res.status, res.iterations) for res in runs] == [("diverged", 2)] * 3


def test_mixed_momentum_block_keeps_signed_zero():
    # a lane of a block with and without momentum keeps its lone bytes.
    # Column 1 is zero and x0[1] = -0.0; x[0] stays above the solution, so
    # every reflection subtracts +0.0 there and rrdr keeps -0.0, while mrrdr
    # adds beta * (x - x_prev) at every beta, which turns -0.0 into +0.0
    A = Matrix([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    x_star = np.array([1.0, 0.0])
    problem = Problem(A=A, b=A.entries @ x_star, x_star=x_star,
                      x0=np.array([3.0, -0.0]), x0_star=np.array([1.0, -0.0]),
                      label="zero-column")
    configs = [SolverConfig(method="mrrdr", r=1, alpha=0.1, beta=beta, seed=seed,
                            stop=StopRule(rse_tol=1e-12, max_iterations=40))
               for beta, seed in ((0.3, 1), (0.0, 2), (0.2, 3), (0.0, 4))]
    runs = run(problem, *configs)
    for cfg, res in zip(configs, runs):
        (alone,) = run(problem, cfg)
        _assert_same_trial(res, alone)
        assert not np.signbit(res.x[1])
    (res,) = run(problem, SolverConfig(method="rrdr", r=1, alpha=0.1, seed=2,
                                       stop=StopRule(rse_tol=1e-12, max_iterations=40)))
    assert np.signbit(res.x[1])


@pytest.mark.parametrize("below", (0, 1))
def test_rse_on_the_tolerance_does_not_stop_a_lane(below):
    # RSE exactly on rse_tol is not below it, so the lane goes on; one ulp
    # below it stops there.  rk never moves away from the solution
    problem = synthetic_problem(30, 6, seed=5)
    traced = SolverConfig(method="rk", seed=9, trace_every=1,
                          stop=StopRule(rse_tol=None, max_iterations=60))
    rse = [rec.rse for rec in run(problem, traced)[0].records]
    k0 = 40
    tol = math.nextafter(rse[k0], math.inf) if below else rse[k0]
    (res,) = run(problem, replace(traced, stop=StopRule(rse_tol=tol), trace_every=0))
    assert (res.status, res.iterations) == ("converged", k0 + 1 - below)
    assert rse[k0 - below] >= tol > rse[k0 + 1 - below]


def test_run_takes_configs_of_one_method():
    problem = synthetic_problem(12, 5, seed=3)
    with pytest.raises(ValueError, match="one method"):
        run(problem)
    with pytest.raises(ValueError, match="one method"):
        run(problem, SolverConfig(method="rk"), SolverConfig(method="rrdr"))


@pytest.mark.parametrize("n", (1, 3, 7, 50, 128, 500))
def test_lane_dot_matches_ndarray_dot(n):
    # run() takes each lane's dots with np.vecdot over rows gathered from A
    # and from its contiguous transpose A.columns; they must sum as
    # ndarray.dot does on one such row, or no lane keeps its one-trial bits
    rng = np.random.default_rng(n)
    A = Matrix(rng.standard_normal((n + 5, n)))
    for T in (1, 10, 250):
        rows, cols = rng.integers(0, A.m, T), rng.integers(0, n, T)
        z, w = rng.standard_normal((T, n)), rng.standard_normal((T, A.m))
        got = np.vecdot(A.entries.take(rows, 0), z)
        want = [A.entries[i].dot(zi) for i, zi in zip(rows, z)]
        assert got.tobytes() == np.array(want).tobytes(), ("rows", T)
        got = np.vecdot(A.columns.take(cols, 0), w)
        want = [A.columns[j].dot(wi) for j, wi in zip(cols, w)]
        assert got.tobytes() == np.array(want).tobytes(), ("columns", T)


def test_deterministic_replay():
    problem = synthetic_problem(25, 10, seed=31)
    cfg = SolverConfig(method="mrrdr", r=3, alpha=0.5, beta=0.3, seed=404,
                       stop=StopRule(rse_tol=None, max_iterations=100),
                       trace_every=10)
    (res1,), (res2,) = run(problem, cfg), run(problem, cfg)
    np.testing.assert_array_equal(res1.x, res2.x)
    assert [r.row_actions for r in res1.records] == [r.row_actions for r in res2.records]
    assert [r.rse for r in res1.records] == [r.rse for r in res2.records]


# ---------------------------------------------------------------------------
# per-method mechanics
# ---------------------------------------------------------------------------


def test_rek_identity_zeroes_aux_coordinate():
    problem = _identity_problem(n=4, seed=2)
    cfg = SolverConfig(method="rek", seed=3)
    state = init_state(problem, cfg)
    np.testing.assert_array_equal(state.z_aux, problem.b)
    rng = Rng(3)
    before = state.z_aux.copy()
    rek_step(state, problem, cfg, rng)
    changed = np.flatnonzero(state.z_aux != before)
    assert changed.size == 1 and state.z_aux[changed[0]] == 0.0
    assert state.row_actions == 2


def test_rek_converges_to_projected_solution():
    problem = synthetic_problem(30, 12, seed=44)
    cfg = SolverConfig(method="rek", seed=9,
                       stop=StopRule(rse_tol=1e-12, max_row_actions=200_000))
    (res,) = run(problem, cfg)
    assert res.status == "converged"
    scale = np.linalg.norm(problem.x0_star)
    assert np.linalg.norm(res.x - problem.x0_star) <= 1e-5 * scale
    assert np.linalg.norm(res.state.z_aux) <= 1e-6


def test_rgs_identity_sets_coordinate():
    problem = _identity_problem(n=3, seed=5)
    cfg = SolverConfig(method="rgs", seed=21)
    state = init_state(problem, cfg)
    rng = Rng(21)
    rgs_step(state, problem, cfg, rng)
    j = int(np.flatnonzero(state.x != 0.0)[0])
    assert state.x[j] == problem.b[j]
    assert state.row_actions == 1


def test_rgs_drives_residual_down():
    problem = synthetic_problem(30, 8, seed=61)
    cfg = SolverConfig(method="rgs", seed=2,
                       stop=StopRule(rse_tol=1e-12, max_row_actions=50_000))
    (res,) = run(problem, cfg)
    assert res.status == "converged"
    r0 = res.records[0].residual_norm2
    assert res.records[-1].residual_norm2 <= 1e-4 * r0


def test_cyclic_cursor_alternates():
    problem = _identity_problem(n=2, seed=6)
    cfg = SolverConfig(method="cyclic-dr", alpha=0.5, seed=0)
    state = init_state(problem, cfg)
    rng = Rng(0)
    assert state.cyclic_cursor == 0
    cyclic_dr_step(state, problem, cfg, rng)
    assert state.cyclic_cursor == 1 and state.row_actions == 2
    cyclic_dr_step(state, problem, cfg, rng)
    assert state.cyclic_cursor == 0 and state.row_actions == 4


def test_cyclic_rejects_zero_row():
    arr = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    problem = Problem(A=Matrix(arr), b=np.zeros(3), x_star=np.zeros(2),
                      x0=np.ones(2), x0_star=np.zeros(2))
    for method in ("cyclic-dr", "det-rsets-dr"):
        with pytest.raises(ValueError, match="zero row"):
            run(problem, SolverConfig(method=method,
                                      stop=StopRule(rse_tol=None, max_iterations=1)))


def test_even_r_needs_rank_two():
    arr = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])  # all rows parallel
    x_star = np.array([0.2, 0.4])
    b = arr @ x_star
    problem = Problem(A=Matrix(arr), b=b, x_star=x_star, x0=np.zeros(2),
                      x0_star=projected_solution(arr, b, np.zeros(2)))
    for method in ("rrdr", "mrrdr"):
        with pytest.raises(ValueError, match="even-r requires rank >= 2"):
            run(problem, SolverConfig(method=method, r=2,
                                      stop=StopRule(rse_tol=None, max_iterations=1)))
        # odd r runs fine
        (res,) = run(problem, SolverConfig(method=method, r=1,
                                        stop=StopRule(rse_tol=None, max_iterations=5)))
        assert res.iterations == 5


def test_rp_admm_identity_one_sweep():
    problem = _identity_problem(n=5, seed=8)
    cfg = SolverConfig(method="rp-admm", seed=13)
    state = init_state(problem, cfg)
    np.testing.assert_array_equal(state.mu, np.zeros(5))
    rp_admm_step(state, problem, cfg, Rng(13))
    np.testing.assert_array_equal(state.x, problem.b)
    assert state.row_actions == 5


def test_rp_admm_zero_column_warns():
    arr = np.array([[1.0, 0.0], [2.0, 0.0]])
    b = np.array([1.0, 2.0])
    problem = Problem(A=Matrix(arr), b=b, x_star=np.array([1.0, 0.0]),
                      x0=np.zeros(2), x0_star=projected_solution(arr, b, np.zeros(2)))
    cfg = SolverConfig(method="rp-admm", seed=1)
    state = init_state(problem, cfg)
    with pytest.warns(UserWarning, match="zero column"):
        rp_admm_step(state, problem, cfg, Rng(1))
    assert state.x[1] == 0.0  # skipped coordinate untouched


def test_rp_admm_coordinate_updates_minimize_lagrangian():
    # replay one sweep; each coordinate move must match a golden-section
    # minimization of the augmented Lagrangian in that coordinate
    problem = synthetic_problem(8, 4, seed=17)
    pen = 1.0
    cfg = SolverConfig(method="rp-admm", seed=29, penalty=pen)
    state = init_state(problem, cfg)
    state.mu = Rng(1000).normal(8) * 0.5  # exercise a nonzero multiplier
    mu = state.mu.copy()
    x_before = state.x.copy()
    rp_admm_step(state, problem, cfg, Rng(29))

    arr_ld = problem.A.entries.astype(np.longdouble)
    b_ld = problem.b.astype(np.longdouble)
    mu_ld = mu.astype(np.longdouble)
    gr = (math.sqrt(5.0) - 1.0) / 2.0

    def golden_min(f, lo, hi, tol=1e-11):
        # comparisons stay in extended precision; a float64 cast here would
        # sink the oracle below the 1e-8 requirement
        a, b2 = lo, hi
        c1 = b2 - gr * (b2 - a)
        c2 = a + gr * (b2 - a)
        f1, f2 = f(c1), f(c2)
        while b2 - a > tol:
            if f1 < f2:
                b2, c2, f2 = c2, c1, f1
                c1 = b2 - gr * (b2 - a)
                f1 = f(c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + gr * (b2 - a)
                f2 = f(c2)
        return 0.5 * (a + b2)

    # walk the sweep's own path: previously visited coordinates hold the
    # values the step actually wrote, so each check is a pure 1-D oracle
    x_path = x_before.astype(np.longdouble)
    perm = Rng(29).permutation(4)  # same stream position as the step used
    for j in perm:
        def lagrangian(t, j=j):
            y = x_path.copy()
            y[j] = t
            res = arr_ld @ y - b_ld
            return -mu_ld @ res + 0.5 * pen * (res @ res)

        center = float(x_path[j])
        t_star = golden_min(lagrangian, center - 8.0, center + 8.0)
        assert abs(float(state.x[j]) - float(t_star)) <= 1e-8
        x_path[j] = np.longdouble(state.x[j])


# ---------------------------------------------------------------------------
# trajectory invariants
# ---------------------------------------------------------------------------


def test_reflection_chain_isometry_and_orthogonality():
    # underdetermined instance so the null space is nontrivial
    problem = synthetic_problem(8, 12, seed=42)
    cfg = SolverConfig(method="rrdr", r=2, alpha=0.5, seed=6)
    state = init_state(problem, cfg)
    rng = Rng(6)
    x0_star = problem.x0_star
    d0 = np.linalg.norm(problem.x0 - x0_star)
    _, _, vt = np.linalg.svd(problem.A.entries)
    null_basis = vt[np.linalg.matrix_rank(problem.A.entries):].T
    assert null_basis.shape[1] == 4
    for _ in range(100):
        x_before = state.x.copy()
        dist_before = np.linalg.norm(x_before - x0_star)
        rrdr_step(state, problem, cfg, rng)
        # reflections preserve distance to any solution point
        dist_z = np.linalg.norm(state.z_last - x0_star)
        assert abs(dist_z - dist_before) <= 1e-10 * (1.0 + dist_before)
        # iterates never leave the start point's row-space slice
        err = state.x - x0_star
        assert np.abs(null_basis.T @ err).max() <= 1e-9 * d0
        # alpha = 1/2 makes the move orthogonal to the remaining error
        move = state.x - x_before
        assert abs(float(err @ move)) <= 1e-9 * dist_before ** 2


def test_one_step_branch_mean():
    # average over all m^r forced branch choices matches the expected map
    problem = synthetic_problem(4, 3, seed=51)
    alpha, beta, r = 0.55, 0.25, 2
    x = Rng(60).normal(3)
    x_prev = Rng(61).normal(3)
    arr = problem.A.entries
    rn = problem.A.row_norms_sq
    weights = rn / problem.A.frob_sq
    import itertools
    mean = np.zeros(3)
    for rows in itertools.product(range(4), repeat=r):
        w = 1.0
        z = x.copy()
        for j in rows:
            w *= weights[j]
            a = arr[j]
            z -= (2.0 * (a @ z - problem.b[j]) / rn[j]) * a
        mean += w * ((1 - alpha) * x + alpha * z + beta * (x - x_prev))
    frob_sq = problem.A.frob_sq
    P = np.eye(3) - 2.0 * (arr.T @ arr) / frob_sq
    M1 = (1 - alpha + beta) * np.eye(3) + alpha * np.linalg.matrix_power(P, r)
    x_ref = projected_solution(arr, problem.b, x)
    want = M1 @ (x - x_ref) - beta * (x_prev - x_ref) + x_ref
    assert np.abs(mean - want).max() <= 1e-10


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


def test_run_start_at_solution():
    problem = _at_solution(synthetic_problem(10, 4, seed=70))
    (res,) = run(problem, SolverConfig(method="rrdr", seed=0))
    assert res.status == "converged"
    assert res.iterations == 0
    assert res.rse == 0.0
    assert [(r.k, r.row_actions) for r in res.records] == [(0, 0)]


def test_run_identity_matches_hand_iteration():
    problem = _identity_problem(n=2, seed=12)
    cfg = SolverConfig(method="rrdr", r=1, alpha=0.5, seed=9, trace_every=1,
                       stop=StopRule(rse_tol=1e-12, max_row_actions=100))
    (res,) = run(problem, cfg)
    assert res.status == "converged"
    assert res.row_actions <= 80

    # replay the trajectory by hand with the same sampled rows
    rng = Rng(9)
    x = np.zeros(2)
    den = float(problem.x0_star @ problem.x0_star)
    hand = [1.0]
    for rec in res.records[1:]:
        while len(hand) - 1 < rec.k:
            j = int(problem.row_sampler.sample_many(rng, 1)[0])
            a = problem.A.entries[j]
            z = x - (2.0 * (a @ x - problem.b[j]) / problem.A.row_norms_sq[j]) * a
            x = (1.0 - 0.5) * x + 0.5 * z
            d = x - problem.x0_star
            hand.append(float(d @ d) / den)
        assert rec.rse == hand[rec.k]


def test_run_trace_cadence():
    problem = synthetic_problem(12, 5, seed=81)
    cfg = SolverConfig(method="rk", seed=4, trace_every=3,
                       stop=StopRule(rse_tol=None, max_row_actions=10))
    (res,) = run(problem, cfg)
    assert res.status == "budget-exhausted"
    assert [r.row_actions for r in res.records] == [0, 3, 6, 9, 10]
    ks = [r.k for r in res.records]
    assert ks == sorted(ks)


def test_run_budget_and_trace_with_several_row_actions_an_iteration():
    # three row actions an iteration: the budget of 10 is spent at k = 4
    # (12 row actions), and a record falls due at the first iteration whose
    # row actions reach the next multiple of trace_every
    problem = synthetic_problem(12, 5, seed=81)
    stop = StopRule(rse_tol=None, max_row_actions=10)
    cfg = SolverConfig(method="rrdr", r=3, seed=4, trace_every=4, stop=stop)
    (res,) = run(problem, cfg)
    assert (res.status, res.iterations, res.row_actions) == ("budget-exhausted", 4, 12)
    assert [(r.k, r.row_actions) for r in res.records] == [(0, 0), (2, 6), (3, 9), (4, 12)]
    # an iteration budget spent first ends the run at the record it also owes,
    # which is written once
    cfg = SolverConfig(method="rrdr", r=3, seed=4, trace_every=4,
                       stop=StopRule(rse_tol=None, max_row_actions=10, max_iterations=3))
    (res,) = run(problem, cfg)
    assert (res.status, res.iterations, res.row_actions) == ("budget-exhausted", 3, 9)
    assert [(r.k, r.row_actions) for r in res.records] == [(0, 0), (2, 6), (3, 9)]


def test_run_status_order_when_bounds_meet():
    # a trial that converges or diverges at the iteration its budget is spent
    # reports the RSE bound, not the budget
    problem = synthetic_problem(12, 5, seed=81)
    cfg = SolverConfig(method="rrdr", r=2, seed=4, stop=StopRule(rse_tol=1e-6))
    (free,) = run(problem, cfg)
    assert free.status == "converged"
    stop = StopRule(rse_tol=1e-6, max_iterations=free.iterations)
    (res,) = run(problem, SolverConfig(method="rrdr", r=2, seed=4, stop=stop))
    assert (res.status, res.iterations, res.rse) == ("converged", free.iterations, free.rse)
    problem = synthetic_problem(20, 8, seed=1)
    cfg = SolverConfig(method="mrrdr", r=2, alpha=0.9, beta=0.95, seed=3,
                       stop=StopRule(rse_tol=1e-12, max_iterations=10_000))
    (free,) = run(problem, cfg)
    assert free.status == "diverged"
    stop = StopRule(rse_tol=1e-12, max_iterations=free.iterations)
    (res,) = run(problem, SolverConfig(method="mrrdr", r=2, alpha=0.9, beta=0.95,
                                       seed=3, stop=stop))
    assert (res.status, res.iterations) == ("diverged", free.iterations)


def test_run_divergence_status():
    problem = synthetic_problem(20, 8, seed=1)
    cfg = SolverConfig(method="mrrdr", r=2, alpha=0.9, beta=0.95, seed=3,
                       stop=StopRule(rse_tol=1e-12, max_iterations=10_000))
    (res,) = run(problem, cfg)
    assert res.status == "diverged"
    assert res.rse > DIVERGENCE_RSE


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_numerical_divergence_status():
    # a divergent momentum cell whose overflow is what ends the run
    problem = _overflowing_problem()
    cfg = SolverConfig(method="mrrdr", r=1, alpha=0.9, beta=0.8, seed=0,
                       stop=StopRule(rse_tol=1e-12, max_iterations=100))
    with np.errstate(over="ignore", invalid="ignore"):
        (res,) = run(problem, cfg)
    assert res.status == "numerical-divergence"


def test_run_failure_instance_cycles():
    problem = three_lines_failure_problem()
    cfg = SolverConfig(method="det-rsets-dr", alpha=0.5,
                       stop=StopRule(rse_tol=None, max_iterations=1000))
    (res,) = run(problem, cfg)
    assert res.status == "budget-exhausted"
    assert res.rse == pytest.approx(1.0, abs=1e-12)  # never moved


def test_run_failure_instance_randomized_escapes():
    problem = three_lines_failure_problem()
    cfg = SolverConfig(method="rrdr", r=3, alpha=0.5, seed=2,
                       stop=StopRule(rse_tol=1e-9, max_row_actions=100_000))
    (res,) = run(problem, cfg)
    assert res.status == "converged"


def test_run_counts_row_actions_per_method():
    problem = synthetic_problem(9, 4, seed=55)
    for method, per_iter in (("rrdr", 3), ("rk", 1), ("rek", 2),
                             ("rgs", 1), ("cyclic-dr", 2),
                             ("det-rsets-dr", 9), ("rp-admm", 4)):
        cfg = SolverConfig(method=method, r=3,
                           stop=StopRule(rse_tol=None, max_iterations=4))
        (res,) = run(problem, cfg)
        assert res.row_actions == 4 * per_iter, method


def test_run_records_monotone_counters():
    problem = synthetic_problem(15, 6, seed=90)
    cfg = SolverConfig(method="rrdr", r=2, seed=8, trace_every=6,
                       stop=StopRule(rse_tol=1e-12, max_row_actions=2000))
    (res,) = run(problem, cfg)
    ra = [r.row_actions for r in res.records]
    assert ra == sorted(ra)
    assert res.records[0].row_actions == 0
    assert res.records[-1].row_actions == res.row_actions
