"""Per-call timings of the hot public functions of ``solvers`` and
``sampling`` on a workload's own problem."""

from __future__ import annotations

import time
from statistics import median

BATCH_S = 0.005
REPEATS = 7

# the step functions timed on every workload, by metric suffix
STEP_CONFIGS = {
    "mrrdr-r2": dict(method="mrrdr", r=2, beta=0.4),
    "mrrdr-r20": dict(method="mrrdr", r=20, beta=0.4),
    "rrdr-r1": dict(method="rrdr", r=1),
    "rk": dict(method="rk"),
    "rek": dict(method="rek"),
    "rgs": dict(method="rgs"),
    "rp-admm": dict(method="rp-admm"),
    "cyclic-dr": dict(method="cyclic-dr"),
    "det-rsets-dr": dict(method="det-rsets-dr"),
}


def _batch(fn, k: int) -> float:
    t0 = time.perf_counter()
    for _ in range(k):
        fn()
    return time.perf_counter() - t0


def per_call_us(fresh) -> float:
    """Median µs per call of ``fresh()``'s callable over ``REPEATS`` batches.

    ``fresh()`` is called, untimed, before each batch, so every batch starts
    from the same state.  The batch size doubles until a batch takes
    ``BATCH_S``.
    """
    k = 1
    while _batch(fresh(), k) < BATCH_S and k < 1 << 20:
        k *= 2
    return median(_batch(fresh(), k) / k for _ in range(REPEATS)) * 1e6


def step_us(rdr, problem, config) -> float | None:
    """µs per call of the public step function of ``config.method`` from the
    method's initial state; None when the program has no such function."""
    step = getattr(rdr.solvers, config.method.replace("-", "_") + "_step", None)
    if step is None:
        return None

    def fresh():
        state = rdr.solvers.init_state(problem, config)
        rng = rdr.sampling.Rng(config.seed)
        return lambda: step(state, problem, config, rng)

    return per_call_us(fresh)


def timing_config(rdr, method: str, r: int = 1, beta: float = 0.0, penalty: float = 1.0):
    # alpha and beta do not change a step's arithmetic; 0.5 and a certified
    # beta keep the iterate bounded while it is timed
    return rdr.solvers.SolverConfig(method=method, r=r, alpha=0.5, beta=beta,
                                    penalty=penalty, seed=12345)


def sampling_metrics(rdr, problem) -> dict:
    sampler = problem.row_sampler
    n = problem.A.n

    def rng_call(call):
        def fresh():
            rng = rdr.sampling.Rng(12345)
            return lambda: call(rng)
        return fresh

    return {
        "sampling.sample_many_us.r2": per_call_us(rng_call(lambda g: sampler.sample_many(g, 2))),
        "sampling.sample_many_us.r20": per_call_us(rng_call(lambda g: sampler.sample_many(g, 20))),
        "sampling.sample_us": per_call_us(rng_call(sampler.sample)),
        "sampling.permutation_us": per_call_us(rng_call(lambda g: g.permutation(n))),
        "sampling.child_us": per_call_us(rng_call(lambda g: g.child(7))),
    }


def step_metrics(rdr, problem) -> tuple[dict, list]:
    """``solvers.step_us.*`` on ``problem``, and the names of missing steps."""
    out, missing = {}, []
    for suffix, kw in STEP_CONFIGS.items():
        us = step_us(rdr, problem, timing_config(rdr, **kw))
        name = f"solvers.step_us.{suffix}"
        if us is None:
            missing.append(name)
        out[name] = us if us is not None else 0.0
    return out, missing


def driver_us_per_iteration(rdr, run_spans) -> float:
    """``run`` time per iteration minus the isolated step time of the same
    (problem, method, r), over all ``run`` spans of a pass."""
    groups = {}
    for span in run_spans:
        problem, config, iterations, _ = span.info
        key = (id(problem), config.method, config.r)
        g = groups.setdefault(key, [problem, config, 0.0, 0])
        g[2] += span.duration
        g[3] += iterations
    extra, iterations = 0.0, 0
    for problem, config, seconds, iters in groups.values():
        us = step_us(rdr, problem, timing_config(rdr, config.method, config.r,
                                                 penalty=config.penalty))
        extra += seconds * 1e6 - iters * (us or 0.0)
        iterations += iters
    return extra / iterations if iterations else 0.0
