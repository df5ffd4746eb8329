"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single ``[acceptance] criterion N PASS/FAIL`` line; run
with ``pytest tests/test_acceptance.py -s`` to see the verdicts.  Tolerances
and budgets are frozen here on purpose: loosening them weakens the gate.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rdr_lab.harness import compute_direction_metrics
from rdr_lab.linalg import (projected_solution, reflect_row, spectral_scalars,
                            svd_small)
from rdr_lab.problems import (GraphSpec, conditioned_problem, gen_ac_problem,
                              gen_direction_adversarial, synthetic_problem,
                              three_lines_failure_problem)
from rdr_lab.sampling import Rng
from rdr_lab.solvers import (SolverConfig, StopRule, init_state, rp_admm_step,
                             rrdr_step, run)
from rdr_lab.theory import (characteristic_roots, enumerate_one_step,
                            mean_map, momentum_accel_region,
                            momentum_linear_region, rate_thm1,
                            singular_decay_factor)


@contextmanager
def _verdict(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} FAIL: {summary}")
        raise
    print(f"[acceptance] criterion {num} PASS: {summary}")


def test_criterion_01_reflection_invariants():
    with _verdict(1, "reflection involution and solution isometry within "
                     "1e-10 over 10^4 random triples in under 1 s"):
        g = Rng(11)
        xs = g.normal((10_000, 5))
        rows = g.normal((10_000, 5))
        bs = g.normal(10_000)
        worst_inv = 0.0
        worst_iso = 0.0
        t0 = time.perf_counter()
        for x, a, b in zip(xs, rows, bs):
            r1 = reflect_row(x, a, b)
            r2 = reflect_row(r1, a, b)
            nx = np.linalg.norm(x)
            worst_inv = max(worst_inv,
                            np.linalg.norm(r2 - x) / max(1.0, nx))
            s = (b / (a @ a)) * a  # a point on the hyperplane
            ds = np.linalg.norm(x - s)
            worst_iso = max(worst_iso,
                            abs(np.linalg.norm(r1 - s) - ds) / max(1.0, ds))
        elapsed = time.perf_counter() - t0
        assert worst_inv <= 1e-10
        assert worst_iso <= 1e-10
        assert elapsed < 1.0


def test_criterion_02_reflected_point_norm_preservation():
    with _verdict(2, "reflected point keeps its distance to the solution to "
                     "1e-9 relative over 100 runs x 200 iterations"):
        cfg = SolverConfig(method="rrdr", r=2, alpha=0.5)
        worst = 0.0
        for s in range(10):
            problem = synthetic_problem(50, 20, 6000 + s)
            for j in range(10):
                rng = Rng(731 * s + j)
                state = init_state(problem, cfg)
                for _ in range(200):
                    before = float(np.linalg.norm(state.e))
                    state = rrdr_step(state, problem, cfg, rng)
                    after = float(np.linalg.norm(state.z_last))
                    worst = max(worst, abs(after - before) / before)
        assert worst <= 1e-9


def test_criterion_03_one_step_mean_oracle():
    with _verdict(3, "enumerated one-step mean matches the mean map and the "
                     "closed-form mean-square within 1e-12 on 50 instances"):
        t0 = time.perf_counter()
        meta = Rng(5150)
        alpha = 0.5
        worst_mean = 0.0
        worst_sq = 0.0
        for i in range(50):
            m = 2 + meta.integer(4)   # 2..5 rows
            n = 2 + meta.integer(3)   # 2..4 columns
            r = 1 + meta.integer(3)   # 1..3 reflections
            beta = 0.0 if i % 2 == 0 else 0.25
            problem = synthetic_problem(m, n, meta.child(i).seed)
            g = meta.child(1000 + i)
            x = problem.x0 + g.normal(n)
            x_prev = problem.x0 + g.normal(n)
            A, b = problem.A, problem.b

            mean_next, mean_sq = enumerate_one_step(A, b, x, x_prev,
                                                    alpha, beta, r)
            x_ref = projected_solution(A, b, x)
            mm = mean_map(A, alpha, beta, r)
            pred = x_ref + mm.apply(x - x_ref, x_prev - x_ref)
            scale = max(1.0, float(np.abs(pred).max()))
            worst_mean = max(worst_mean,
                             float(np.abs(mean_next - pred).max()) / scale)

            # mean squared distance: |u|^2 + 2a<u, P^r e> + a^2 |e|^2 with
            # u = (1-a)e + beta(e-d), via an independent matrix power
            e = x - x_ref
            d = x_prev - x_ref
            P = np.eye(n) - 2.0 * (A.entries.T @ A.entries) / A.frob_sq
            pr_e = np.linalg.matrix_power(P, r) @ e
            u = (1.0 - alpha) * e + beta * (e - d)
            ident = float(u @ u) + 2.0 * alpha * float(u @ pr_e) \
                + alpha * alpha * float(e @ e)
            worst_sq = max(worst_sq,
                           abs(mean_sq - ident) / max(1.0, abs(ident)))
        elapsed = time.perf_counter() - t0
        assert worst_mean <= 1e-12
        assert worst_sq <= 1e-12
        assert elapsed < 30.0


def test_criterion_04_mean_square_rate_envelope():
    with _verdict(4, "Monte-Carlo mean squared error stays under the "
                     "one-step-rate envelope for k = 1..30"):
        t0 = time.perf_counter()
        problem = synthetic_problem(50, 20, 42)
        spec = spectral_scalars(problem.A)
        rate = rate_thm1(spec, 0.5, 2)
        cfg = SolverConfig(method="rrdr", r=2, alpha=0.5)
        diff0 = problem.x0 - problem.x0_star
        d0 = float(diff0 @ diff0)
        trials, steps = 500, 30
        meta = Rng(20240042)
        sq = np.empty((trials, steps))
        for t in range(trials):
            rng = meta.child(t)
            state = init_state(problem, cfg)
            for k in range(steps):
                state = rrdr_step(state, problem, cfg, rng)
                sq[t, k] = float(state.e @ state.e)
        mean = sq.mean(axis=0)
        se = sq.std(axis=0, ddof=1) / math.sqrt(trials)
        for k in range(1, steps + 1):
            bound = rate ** k * d0 * (1.0 + 4.0 * se[k - 1] / mean[k - 1])
            assert mean[k - 1] <= bound, f"k={k}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_criterion_05_mean_iterate_exactness():
    with _verdict(5, "per-direction expected error follows its decay factor "
                     "exactly, and Monte-Carlo means agree within 4 SE"):
        problem = synthetic_problem(5, 3, 303)
        A = problem.A
        res = svd_small(A)
        err0 = problem.x0 - problem.x0_star
        alpha, r = 0.5, 2
        mm = mean_map(A, alpha, 0.0, r)
        traj = mm.trajectory(err0, 50)
        factors = [singular_decay_factor(float(s), A.frob_sq, alpha, r)
                   for s in res.singular_values]
        for ell in range(res.rank):
            v = res.V[:, ell]
            base = float(err0 @ v)
            for k in range(51):
                want = factors[ell] ** k * base
                got = float(traj[k] @ v)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(base))

        # Monte-Carlo cross-check at k = 5 with vectorized trials
        trials, steps = 100_000, 5
        rng = Rng(88)
        draws = problem.row_sampler.sample_many(rng, trials * steps * r)
        draws = draws.reshape(trials, steps, r)
        arr, rn, b = A.entries, A.row_norms_sq, problem.b
        X = np.tile(problem.x0, (trials, 1))
        for k in range(steps):
            Z = X.copy()
            for t in range(r):
                j = draws[:, k, t]
                a = arr[j]
                resid = np.einsum("ij,ij->i", a, Z) - b[j]
                Z -= (2.0 * resid / rn[j])[:, None] * a
            X = (1.0 - alpha) * X + alpha * Z
        coords = (X - problem.x0_star) @ res.V
        for ell in range(res.rank):
            pred = factors[ell] ** steps * float(err0 @ res.V[:, ell])
            samples = coords[:, ell]
            se = samples.std(ddof=1) / math.sqrt(trials)
            assert abs(float(samples.mean()) - pred) <= 4.0 * se


def test_criterion_06_cyclic_failure_random_recovery():
    with _verdict(6, "deterministic sweep stalls at constant error while the "
                     "randomized method converges for 10 committed seeds"):
        problem = three_lines_failure_problem()
        det_cfg = SolverConfig(
            method="det-rsets-dr", alpha=0.5, trace_every=1,
            stop=StopRule(rse_tol=None, max_iterations=1000))
        (stalled,) = run(problem, det_cfg)
        assert stalled.status == "budget-exhausted"
        assert stalled.iterations == 1000
        drift = max(abs(rec.rse - 1.0) for rec in stalled.records)
        assert drift <= 1e-10

        for seed in range(1, 11):  # the committed seed list
            cfg = SolverConfig(
                method="rrdr", r=3, alpha=0.5, seed=seed,
                stop=StopRule(rse_tol=1e-9, max_row_actions=10_000))
            (out,) = run(problem, cfg)
            assert out.status == "converged", f"seed={seed}"
            assert out.rse < 1e-9
            assert out.row_actions <= 10_000


def test_criterion_07_momentum_linear_region():
    with _verdict(7, "near-maximal momentum keeps a valid contraction "
                     "certificate and converges within 4x the implied budget"):
        meta = Rng(20250823)
        for t in range(20):
            g = meta.child(t)
            n = 3 + g.integer(6)
            m = 2 * n + 2 + g.integer(25)
            problem = synthetic_problem(m, n, g.child(1).seed)
            spec = spectral_scalars(problem.A)
            alpha = 0.2 + 0.6 * float(g.uniform())
            r = 1 + g.integer(3)
            beta = 0.9 * momentum_linear_region(spec, alpha, r, 0.0).beta_max
            region = momentum_linear_region(spec, alpha, r, beta)
            assert region.feasible
            assert region.gamma1 + region.gamma2 <= region.q < 1.0

            k_star = math.ceil(math.log(1e-6 / (1.0 + region.tau))
                               / math.log(region.q))
            cfg = SolverConfig(
                method="mrrdr", r=r, alpha=alpha, beta=beta,
                seed=g.child(2).seed,
                stop=StopRule(rse_tol=1e-6, max_iterations=4 * k_star))
            (out,) = run(problem, cfg)
            assert out.status == "converged", f"draw={t}"


def test_criterion_08_accelerated_mean_rate():
    with _verdict(8, "inside the acceleration window the expected error "
                     "decays like beta^k and every root has modulus^2 = beta"):
        problem = synthetic_problem(30, 10, 13)
        A = problem.A
        spec = spectral_scalars(A)
        alpha, r = 0.3, 1
        alpha_max, beta_lo = momentum_accel_region(spec, alpha, r)
        assert alpha < alpha_max
        assert 0.0 <= beta_lo < 1.0
        # low in the admissible window: the oscillation of the mean under
        # complex roots then peaks inside the fit window k <= 3
        beta = beta_lo + 0.3 * (1.0 - beta_lo)

        res = svd_small(A)
        roots = characteristic_roots(res.singular_values, A.frob_sq,
                                     alpha, beta, r)
        assert float(np.max(np.abs(np.abs(roots) ** 2 - beta))) <= 1e-12

        mm = mean_map(A, alpha, beta, r)
        err0 = problem.x0 - problem.x0_star
        traj = mm.trajectory(err0, 200)
        norms_sq = np.einsum("ij,ij->i", traj, traj)
        c_fit = max(norms_sq[k] / beta ** k for k in (1, 2, 3))
        # 1e-9 relative slack absorbs float rounding near beta^200 ~ 1e-17
        for k in range(4, 201):
            assert norms_sq[k] <= beta ** k * c_fit * (1.0 + 1e-9), f"k={k}"


def test_criterion_09_recommended_momentum_wins():
    with _verdict(9, "momentum (0.5, 0.4) beats plain averaging in median "
                     "iterations on an ill-conditioned instance"):
        problem = conditioned_problem(500, 100, 1e4, 2024)

        def median_iterations(method, beta):
            # the ten seeds run as one block; each trial is what it is alone
            outs = run(problem, *(SolverConfig(
                method=method, r=2, alpha=0.5, beta=beta, seed=seed,
                stop=StopRule(rse_tol=1e-12, max_iterations=300_000))
                for seed in range(1, 11)))
            for seed, out in enumerate(outs, start=1):
                assert out.status == "converged", (method, seed)
            return float(np.median([out.iterations for out in outs]))

        with_momentum = median_iterations("mrrdr", 0.4)
        without = median_iterations("rrdr", 0.0)
        assert with_momentum < without


def test_criterion_10_average_consensus():
    with _verdict(10, "consensus on line, cycle, and geometric graphs lands "
                      "within 1e-6 of the mean of the node values"):
        c = Rng(999).uniform(50)
        target = float(np.mean(c))
        for topology in ("line", "cycle", "geometric"):
            gspec = GraphSpec(topology=topology, n=50, seed=777)
            problem = gen_ac_problem(gspec, c)
            cfg = SolverConfig(
                method="rrdr", r=2, alpha=0.5, seed=4242,
                stop=StopRule(rse_tol=3e-14, max_row_actions=2_000_000))
            (out,) = run(problem, cfg)
            assert out.status == "converged", topology
            assert float(np.max(np.abs(out.x - target))) <= 1e-6, topology


def test_criterion_11_semiconvergence_diagnostics():
    with _verdict(11, "on the near-singular instance the error direction "
                      "collapses onto the minimal singular vector"):
        problem = gen_direction_adversarial(2024)
        res = svd_small(problem.A)
        sigma_min = float(res.singular_values[res.rank - 1])
        assert 1e-5 < sigma_min < 1e-3  # isolated tiny singular value
        v_min = res.V[:, res.rank - 1]

        cfg = SolverConfig(
            method="rrdr", r=3, alpha=0.5, seed=1, trace_every=250,
            stop=StopRule(rse_tol=1e-12, max_row_actions=30_000))
        (out,) = run(problem, cfg,
                  metrics_fn=lambda e: compute_direction_metrics(e, problem,
                                                                 v_min))
        first, last = out.records[0], out.records[-1]
        assert first.k == 0
        assert first.dir_ratio > 0.6
        assert last.dir_ratio < 10.0 * sigma_min
        assert last.vmin_overlap > 0.99


def _golden_min(f, lo, hi):
    """Derivative-free 1-D minimizer in extended precision (tol 1e-11)."""
    gr = (np.longdouble(5.0) ** np.longdouble(0.5) - 1.0) / 2.0
    a, b = np.longdouble(lo), np.longdouble(hi)
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while float(b - a) > 1e-11:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return float((a + b) / 2.0)


def test_criterion_12_baseline_sanity():
    with _verdict(12, "every baseline converges within its row-action budget "
                      "and the ADMM coordinate update matches a search "
                      "oracle on 100 coordinates"):
        budgets = {"rk": 12_000, "rek": 30_000, "rgs": 12_000,
                   "rp-admm": 15_000}
        for seed in (1, 2, 3):
            problem = synthetic_problem(100, 50, seed)
            for method, budget in budgets.items():
                cfg = SolverConfig(
                    method=method, penalty=1.0, seed=seed * 11 + 5,
                    stop=StopRule(rse_tol=1e-8, max_row_actions=budget))
                (out,) = run(problem, cfg)
                assert out.status == "converged", (method, seed)
                assert out.rse < 1e-8
                assert out.row_actions <= budget

        # coordinate-update oracle: walk full sweeps, checking the written
        # value of each coordinate against a golden-section minimizer of the
        # penalized objective evaluated in extended precision
        problem = synthetic_problem(20, 8, 6)
        arr = problem.A.entries
        n = problem.A.n
        meta = Rng(31415)
        cfg = SolverConfig(method="rp-admm", penalty=1.0,
                           stop=StopRule(rse_tol=None, max_iterations=1))
        state = init_state(problem, cfg)
        state.e = problem.x0 - problem.x0_star + meta.child(999).normal(n)
        state.residual = arr @ state.e
        arr_ld = arr.astype(np.longdouble)

        checked = 0
        worst = 0.0
        sweep = 0
        while checked < 100:
            seed = meta.child(sweep).seed
            e_before = state.e.copy()
            res_before = state.residual.copy()
            mu_before = state.mu.copy()
            perm = Rng(seed).permutation(n)
            rp_admm_step(state, problem, cfg, Rng(seed))

            e_path = e_before.astype(np.longdouble)
            res_path = res_before.astype(np.longdouble)
            mu_ld = mu_before.astype(np.longdouble)
            for j in perm:
                col = arr_ld[:, j]
                base = res_path - e_path[j] * col

                def objective(t, base=base, col=col, mu=mu_ld):
                    resid = base + t * col
                    return np.longdouble(0.5) * (resid @ resid) - mu @ resid

                written = float(state.e[j])
                t_opt = _golden_min(objective, written - 0.5, written + 0.5)
                worst = max(worst, abs(t_opt - written))
                res_path = base + np.longdouble(written) * col
                e_path[j] = written
                checked += 1
                if checked >= 100:
                    break
            sweep += 1
        assert worst <= 1e-8
