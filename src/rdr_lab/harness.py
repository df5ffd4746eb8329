"""Experiment harness: config files, figure presets, and CSV traces.

An experiment is a problem, a list of solver configs, a trial count, and a
seed.  Trials own child RNG streams derived from the experiment seed, and
output rows are merged in a fixed (config, trial, step) order, so results
are byte-identical for a given config file and seed regardless of how the
trials are scheduled.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
import time
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import problems as problems_mod
from .linalg import spectral_scalars, svd_small
from .problems import GraphSpec, Problem
from .sampling import MASK64, Rng, _whole, child_seed
from .solvers import METHODS, RunResult, SolverConfig, StopRule, run
from .theory import rate_report

SCHEMA_VERSION = 1

TRACE_COLUMNS = ("experiment", "solver", "trial", "k", "row_actions", "rse",
                 "residual_norm2", "dir_ratio", "vmin_overlap")
SUMMARY_COLUMNS = ("experiment", "solver", "trial", "status", "iterations",
                   "row_actions", "rse")


class ConfigError(ValueError):
    """Config file rejected; message carries the offending line when known."""


# ---------------------------------------------------------------------------
# experiment description
# ---------------------------------------------------------------------------


@dataclass
class ProblemSpec:
    source: str  # synthetic | conditioned | mtx | ac | three-lines | adversarial
    m: int = 100
    n: int = 50
    ratio: float | None = None
    path: str | None = None
    topology: str = "line"
    nodes: int = 50
    radius: float | None = None

    def validate(self):
        if self.source not in _SOURCES:
            raise ConfigError(f"unknown problem source: {self.source}")
        for name in ("m", "n", "nodes"):
            if (value := _whole(getattr(self, name))) is None or value < 1:
                raise ConfigError(f"'{name}' must be a whole number >= 1")
            setattr(self, name, value)
        if self.source == "conditioned" and self.ratio is None:
            raise ConfigError("conditioned problems need 'ratio'")
        if self.source == "mtx" and not self.path:
            raise ConfigError("mtx problems need 'path'")
        if self.source == "ac":
            if self.topology not in ("line", "cycle", "geometric"):
                raise ConfigError(f"unknown topology: {self.topology}")
            if self.nodes < 2:
                raise ConfigError("ac problems need nodes >= 2")


@dataclass
class ExperimentSpec:
    problem: ProblemSpec
    configs: list  # list[SolverConfig]; seeds are assigned per trial at run time
    trials: int = 10
    seed: int = 0
    out_dir: str = "out"
    label: str = "experiment"
    # presets may tolerate non-converged statuses (sweeps include divergent cells)
    allow_divergence: bool = False

    def validate(self):
        self.problem.validate()
        if not self.configs:
            raise ConfigError("no solver configs requested")
        trials = _whole(self.trials)
        if trials is None or trials < 1:
            raise ConfigError("trials must be a whole number >= 1")
        self.trials = trials
        seed = _whole(self.seed)
        if seed is None or not 0 <= seed <= MASK64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        self.seed = seed


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

# section -> key -> converter; ``[conv]`` is a comma-separated list of conv
_KEYS = {
    "problem": {"source": str.lower, "m": int, "n": int, "ratio": float,
                "path": str, "topology": str.lower, "nodes": int,
                "radius": float, "label": str},
    "solvers": {"methods": [str], "r": [int], "alpha": [float],
                "beta": [float], "penalty": float},
    "run": {"trials": int, "seed": int, "rse_tol": float,
            "max_row_actions": int, "max_iterations": int,
            "trace_every": int, "out": str},
}
_NONE_KEYS = {"rse_tol", "max_row_actions", "max_iterations"}
# a '#' at the start of a line or after whitespace starts a comment
_COMMENT = re.compile(r"(^|\s)#.*")


def _convert(ln, key, raw, conv):
    if key in _NONE_KEYS and raw.lower() == "none":
        return None
    if isinstance(conv, list):
        out = []
        for piece in filter(None, (p.strip() for p in raw.split(","))):
            try:
                out.append(conv[0](piece))
            except ValueError:
                raise ConfigError(
                    f"line {ln}: bad value '{piece}' for '{key}'") from None
        if not out:
            raise ConfigError(f"line {ln}: empty list for '{key}'")
        if key == "methods":
            for mth in out:
                if mth not in METHODS:
                    raise ConfigError(f"line {ln}: unknown method '{mth}'")
        return out
    try:
        return conv(raw)
    except ValueError:
        what = "an integer" if conv is int else "a number"
        raise ConfigError(f"line {ln}: '{key}' must be {what}") from None


def _parse_lines(text: str):
    """Line-oriented ``key = value`` parser with ``[section]`` headers;
    returns each section's values converted as ``_KEYS`` says."""
    sections = {name: {} for name in _KEYS}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ConfigError(f"line {ln}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {ln}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS[current]:
            raise ConfigError(f"line {ln}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {ln}: duplicate key '{key}'")
        sections[current][key] = _convert(ln, key, value.strip(),
                                          _KEYS[current][key])
    return sections


def parse_config(text: str) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from config text; unknown keys fail.

    A key the file leaves out takes the default of the dataclass field it
    fills, apart from the file's own defaults named here.
    """
    sections = _parse_lines(text)
    problem, solvers, run_sec = (sections[name] for name in _KEYS)
    experiment = {"label": problem.pop("label")} if "label" in problem else {}
    if problem.get("source") == "adversarial" and "m" in problem \
            and problem["m"] != problem.get("n", ProblemSpec.n):
        raise ConfigError("adversarial problems are square: 'm' must equal 'n'")
    for key, name in (("trials", "trials"), ("seed", "seed"), ("out", "out_dir")):
        if key in run_sec:
            experiment[name] = run_sec.pop(key)
    trace_every = run_sec.pop("trace_every", 1000)
    grid = {"method": solvers.pop("methods", ["rrdr"])}
    grid.update((key, solvers.pop(key)) for key in ("r", "alpha", "beta")
                if key in solvers)
    try:
        # what is left of [run] is the stop rule, and of [solvers] the penalty
        stop = StopRule(**{"max_row_actions": 1_000_000, **run_sec})
        # a config holds only what its method reads, so equal ones collapse
        configs = list(dict.fromkeys(
            SolverConfig(**dict(zip(grid, values)), **solvers, stop=stop,
                         trace_every=trace_every)
            for values in itertools.product(*grid.values())))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spec = ExperimentSpec(problem=ProblemSpec(**{"source": "synthetic", **problem}),
                          configs=configs, **experiment)
    spec.validate()
    return spec


def parse_config_file(path) -> ExperimentSpec:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# problem construction and metrics
# ---------------------------------------------------------------------------


# problem source -> build from (spec, seed)
_SOURCES = {
    "synthetic": lambda p, seed: problems_mod.synthetic_problem(p.m, p.n, seed),
    "conditioned": lambda p, seed: problems_mod.conditioned_problem(
        p.m, p.n, p.ratio, seed),
    "mtx": lambda p, seed: problems_mod.mtx_problem(p.path, seed),
    "ac": lambda p, seed: problems_mod.gen_ac_problem(
        GraphSpec(p.topology, p.nodes, p.radius, seed), Rng(seed).uniform(p.nodes)),
    "three-lines": lambda p, seed: problems_mod.three_lines_failure_problem(),
    "adversarial": lambda p, seed: problems_mod.gen_direction_adversarial(seed, n=p.n),
}


def build_problem(pspec: ProblemSpec, seed: int) -> Problem:
    """Materialize the problem described by a spec under a given seed."""
    pspec.validate()
    return _SOURCES[pspec.source](pspec, seed)


def compute_direction_metrics(x, problem: Problem, v_min):
    """Direction diagnostics of the current error ``e = x - x0_star``.

    Returns ``(|A e| / |e|, |<e/|e|, v_min>|)``; both zero when the error
    vanished and no direction is defined.
    """
    e = np.asarray(x, dtype=np.float64) - problem.x0_star
    nrm = math.sqrt(float(e @ e))
    if nrm == 0.0:
        return 0.0, 0.0
    ae = problem.A.entries @ e
    return (float(np.sqrt(ae @ ae)) / nrm,
            abs(float(e @ v_min)) / nrm)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    problem: Problem
    runs: list  # list of (config_label, trial, RunResult)
    rates: dict  # RateReport by config label
    trace_path: Path
    summary_path: Path
    meta_path: Path


def rate_reports(spec: ExperimentSpec, problem: Problem) -> dict:
    """Closed-form rate reports of the rrdr and mrrdr configs, by label."""
    scal = spectral_scalars(problem.A)
    return {config.label(): rate_report(scal, config.alpha, config.beta, config.r)
            for config in spec.configs if config.method in ("rrdr", "mrrdr")}


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Run every (config, trial) pair, one solver call per method, and write
    trace/summary/meta files.

    Trial ``t`` of grid entry ``g`` draws from the child stream with index
    ``g * trials + t + 1`` of the experiment seed; entry 0 seeds problem
    generation.  Rows are emitted in (config, trial, step) order.  Trace
    records carry direction metrics on adversarial problems."""
    spec.validate()
    problem = build_problem(spec.problem, child_seed(spec.seed, 0))

    sigma_min = None
    metrics_fn = None
    if spec.problem.source == "adversarial":
        svd = svd_small(problem.A)
        v_min = svd.V[:, svd.rank - 1]
        sigma_min = float(svd.singular_values[svd.rank - 1])
        metrics_fn = lambda x: compute_direction_metrics(x, problem, v_min)

    t_start = time.perf_counter()
    trials = [(config.label(), trial, replace(
        config, seed=child_seed(spec.seed, g * spec.trials + trial + 1)))
        for g, config in enumerate(spec.configs) for trial in range(spec.trials)]
    results = {}  # by position in ``trials``; methods in order of first appearance
    for method in dict.fromkeys(config.method for config in spec.configs):
        group = [i for i, (_, _, config) in enumerate(trials) if config.method == method]
        results.update(zip(group, run(problem, *(trials[i][2] for i in group),
                                      metrics_fn=metrics_fn)))
    runs = [(label, trial, results[i]) for i, (label, trial, _) in enumerate(trials)]
    elapsed = time.perf_counter() - t_start

    rates = rate_reports(spec, problem)

    out = Path(out_dir if out_dir is not None else spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(
        spec=spec, problem=problem, runs=runs, rates=rates,
        trace_path=out / f"{spec.label}_trace.csv",
        summary_path=out / f"{spec.label}_summary.csv",
        meta_path=out / f"{spec.label}_meta.txt")
    _write_trace(result.trace_path, spec.label, runs)
    _write_summary(result.summary_path, spec.label, runs)
    _write_meta(result.meta_path, spec, problem, rates, sigma_min, elapsed)
    return result


def _write_csv(path, columns, rows):
    # csv writes None as an empty field and a float, numpy's too, by its repr
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _write_trace(path, label, runs):
    fields = attrgetter(*TRACE_COLUMNS[3:])  # TraceRecord fields
    _write_csv(path, TRACE_COLUMNS, ((label, solver_label, trial, *fields(rec))
                                     for solver_label, trial, result in runs
                                     for rec in result.records))


def _write_summary(path, label, runs):
    fields = attrgetter(*SUMMARY_COLUMNS[3:])  # RunResult attributes
    _write_csv(path, SUMMARY_COLUMNS, ((label, solver_label, trial, *fields(result))
                                       for solver_label, trial, result in runs))


def _write_meta(path, spec, problem, rates, sigma_min, elapsed):
    lines = [
        f"schema_version = {SCHEMA_VERSION}",
        f"experiment = {spec.label}",
        f"seed = {spec.seed}",
        f"trials = {spec.trials}",
        f"problem.label = {problem.label}",
        f"problem.m = {problem.A.m}",
        f"problem.n = {problem.A.n}",
        f"problem.frob_sq = {problem.A.frob_sq}",
    ]
    for key, value in sorted(problem.info.items()):
        lines.append(f"problem.{key} = {value}")
    if sigma_min is not None:
        lines.append(f"problem.sigma_min = {sigma_min}")
    lines.append(
        "row_action_convention = rrdr/mrrdr/det-rsets-dr: one per reflection; "
        "rk: one per projection; rek: row plus column touch (2); rgs: one per "
        "column update; cyclic-dr: 2; rp-admm: n per sweep")
    for label, report in sorted(rates.items()):
        for key in ("rate_thm1", "rate_thm2", "delta1", "delta2", "gamma1",
                    "gamma2", "q", "tau", "beta_max"):
            lines.append(f"rates.{label}.{key} = {getattr(report, key)}")
    # informational only; everything above is deterministic for a given seed
    lines.append(f"wall_clock_seconds = {elapsed:.3f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def _scaled(value, scale):
    return max(2, int(round(value * scale)))


def figure_presets(scale: float = 1.0, seed: int = 12345) -> dict:
    """Desk-size experiment bundles mirroring the figure families.

    ``scale`` multiplies problem dimensions; budgets stay fixed.  Returns a
    dict keyed by preset name.
    """
    if not 0.0 < scale < math.inf:
        raise ConfigError("scale must be positive and finite")
    presets = {}

    stop12 = lambda budget: StopRule(rse_tol=1e-12, max_row_actions=budget)

    # momentum parameter sweep over (alpha, beta)
    sweep_cfgs = [
        SolverConfig(method="mrrdr", r=r, alpha=a, beta=b,
                     stop=stop12(2_000_000), trace_every=0)
        for r in (2, 3)
        for a in (0.1, 0.3, 0.5, 0.7, 0.9)
        for b in (0.0, 0.2, 0.4, 0.6, 0.8)
    ]
    presets["fig-param-sweep"] = ExperimentSpec(
        problem=ProblemSpec(source="synthetic", m=_scaled(200, scale),
                            n=_scaled(50, scale)),
        configs=sweep_cfgs, trials=10, seed=seed, label="fig-param-sweep",
        allow_divergence=True)

    presets["fig-r-sweep"] = ExperimentSpec(
        problem=ProblemSpec(source="synthetic", m=_scaled(200, scale),
                            n=_scaled(50, scale)),
        configs=[
            SolverConfig(method="mrrdr", r=r, alpha=0.5, beta=b,
                         stop=stop12(1_000_000), trace_every=500)
            for b in (0.0, 0.4) for r in range(1, 21)
        ],
        trials=10, seed=seed, label="fig-r-sweep")

    presets["fig-vs-cyclic"] = ExperimentSpec(
        problem=ProblemSpec(source="synthetic", m=_scaled(200, scale),
                            n=_scaled(50, scale)),
        configs=[
            SolverConfig(method="cyclic-dr", alpha=0.5,
                         stop=stop12(2_000_000), trace_every=500),
            SolverConfig(method="mrrdr", r=2, alpha=0.5, beta=0.0,
                         stop=stop12(2_000_000), trace_every=500),
            SolverConfig(method="mrrdr", r=2, alpha=0.5, beta=0.4,
                         stop=stop12(2_000_000), trace_every=500),
        ],
        trials=10, seed=seed, label="fig-vs-cyclic")

    presets["fig-baselines"] = ExperimentSpec(
        problem=ProblemSpec(source="synthetic", m=_scaled(100, scale),
                            n=_scaled(50, scale)),
        configs=[
            SolverConfig(method="rk", stop=stop12(1_000_000), trace_every=500),
            SolverConfig(method="rek", stop=stop12(1_000_000), trace_every=500),
            SolverConfig(method="rgs", stop=stop12(1_000_000), trace_every=500),
            SolverConfig(method="rp-admm", penalty=1.0,
                         stop=stop12(1_000_000), trace_every=500),
            SolverConfig(method="mrrdr", r=2, alpha=0.5, beta=0.4,
                         stop=stop12(1_000_000), trace_every=500),
        ],
        trials=10, seed=seed, label="fig-baselines")

    presets["fig-direction"] = ExperimentSpec(
        problem=ProblemSpec(source="adversarial", m=_scaled(500, scale),
                            n=_scaled(500, scale)),
        configs=[
            SolverConfig(method="rrdr", r=r, alpha=0.5,
                         stop=StopRule(rse_tol=1e-12, max_row_actions=30_000),
                         trace_every=250)
            for r in (1, 2, 3, 4, 10, 20)
        ],
        trials=1, seed=seed, label="fig-direction")

    presets["fig-failure"] = ExperimentSpec(
        problem=ProblemSpec(source="three-lines"),
        configs=[
            SolverConfig(method="det-rsets-dr", alpha=0.5,
                         stop=StopRule(rse_tol=1e-12, max_iterations=1000),
                         trace_every=30),
            SolverConfig(method="rrdr", r=3, alpha=0.5,
                         stop=StopRule(rse_tol=1e-12, max_row_actions=10_000),
                         trace_every=30),
        ],
        trials=10, seed=seed, label="fig-failure",
        allow_divergence=False)

    return presets


def preset(name: str, scale: float = 1.0, seed: int = 12345) -> ExperimentSpec:
    all_presets = figure_presets(scale=scale, seed=seed)
    if name not in all_presets:
        known = ", ".join(sorted(all_presets))
        raise ConfigError(f"unknown preset '{name}' (known: {known})")
    return all_presets[name]
