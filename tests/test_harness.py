"""Harness tests: config parsing, problem building, direction metrics, CSV
emission, figure presets, and the CLI exit-code contract."""

import csv
import hashlib
import io
import math
from dataclasses import FrozenInstanceError, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from rdr_lab import cli
from rdr_lab.harness import (
    SCHEMA_VERSION,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    ConfigError,
    ExperimentSpec,
    ProblemSpec,
    build_problem,
    compute_direction_metrics,
    figure_presets,
    parse_config,
    parse_config_file,
    preset,
    run_experiment,
    _write_meta,
    _write_summary,
    _write_trace,
)
from rdr_lab.linalg import spectral_scalars, svd_small
from rdr_lab.problems import three_lines_failure_problem
from rdr_lab.solvers import RunResult, SolverConfig, StopRule, TraceRecord
from rdr_lab.theory import rate_report

MINIMAL = """
[problem]
source = synthetic
m = 100
n = 50

[solvers]
methods = rrdr
r = 2
alpha = 0.5
"""


def _tiny_spec(tmp_path, **overrides):
    spec = ExperimentSpec(
        problem=ProblemSpec(source="synthetic", m=12, n=5),
        configs=[SolverConfig(method="rrdr", r=2, alpha=0.5,
                              stop=StopRule(rse_tol=1e-10, max_row_actions=50_000),
                              trace_every=100)],
        trials=2, seed=99, out_dir=str(tmp_path), label="tiny")
    return replace(spec, **overrides)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal():
    spec = parse_config(MINIMAL)
    assert spec.problem.source == "synthetic"
    assert (spec.problem.m, spec.problem.n) == (100, 50)
    assert len(spec.configs) == 1
    cfg = spec.configs[0]
    assert (cfg.method, cfg.r, cfg.alpha, cfg.beta) == ("rrdr", 2, 0.5, 0.0)
    assert cfg.stop.rse_tol == 1e-12
    assert cfg.stop.max_row_actions == 1_000_000
    assert cfg.trace_every == 1000
    assert spec.trials == 10


def test_parse_grid_expansion():
    text = """
[problem]
source = synthetic

[solvers]
methods = mrrdr
r = 2
alpha = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9
beta = 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8
"""
    spec = parse_config(text)
    assert len(spec.configs) == 81
    pairs = {(c.alpha, c.beta) for c in spec.configs}
    assert (0.5, 0.4) in pairs
    assert len(pairs) == 81


def test_parse_grid_spans_only_read_parameters():
    # rk reads none of r, alpha, beta and rrdr reads no beta, so their
    # copies across those lists collapse into one config each
    spec = parse_config("[solvers]\nmethods = rk, rrdr, mrrdr\nr = 1, 2\n"
                        "beta = 0.0, 0.4\n")
    labels = [c.label() for c in spec.configs]
    assert len(labels) == len(set(labels)) == 7
    assert labels.count("rk") == 1


def test_parse_grid_det_rsets_dr_builds_one_config():
    # det-rsets-dr composes all m rows and reads no r, so a grid over r
    # runs it once, under a label without r
    spec = parse_config("[solvers]\nmethods = det-rsets-dr\nr = 1, 2\n")
    assert [c.label() for c in spec.configs] == ["det-rsets-dr[a=0.5]"]


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 3: unknown key 'colour'"):
        parse_config("[problem]\nsource = synthetic\ncolour = red\n")


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="line 1: unknown section"):
        parse_config("[plotting]\nstyle = dark\n")


def test_parse_rejects_key_outside_section():
    with pytest.raises(ConfigError, match="line 1: key outside any section"):
        parse_config("m = 10\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'm'"):
        parse_config("[problem]\nm = 10\nm = 20\n")


def test_parse_rejects_bad_number():
    with pytest.raises(ConfigError, match="'m' must be an integer"):
        parse_config("[problem]\nm = ten\n")


def test_parse_rejects_beta_out_of_range():
    for bad in ("1.0", "1.5", "-0.1"):
        with pytest.raises(ConfigError, match=r"beta must lie in \[0, 1\)"):
            parse_config(f"[solvers]\nmethods = mrrdr\nbeta = {bad}\n")


def test_parse_rejects_unknown_method():
    with pytest.raises(ConfigError, match="unknown method 'sgd'"):
        parse_config("[solvers]\nmethods = rrdr, sgd\n")


def test_parse_conditioned_needs_ratio():
    with pytest.raises(ConfigError, match="need 'ratio'"):
        parse_config("[problem]\nsource = conditioned\n")


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_parse_readme_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config files", 1)[1].split("```ini\n", 1)[1]
    spec = parse_config(block.split("```", 1)[0])
    assert (spec.problem.source, spec.problem.m, spec.problem.n) == ("synthetic", 200, 50)
    assert spec.problem.path == "data/some.mtx"
    assert len(spec.configs) == 3 * 2 + 1  # mrrdr r x beta, and one rk
    assert spec.configs[0].stop.max_iterations is None
    assert spec.label == "my-experiment"


def test_parse_comments():
    spec = parse_config("# head\n[problem]  # section\nsource = mtx # inline\n"
                        "path = a#b.mtx\n\tlabel = x\t# tab\n")
    assert spec.problem.source == "mtx"
    assert spec.problem.path == "a#b.mtx"
    assert spec.label == "x"


# ---------------------------------------------------------------------------
# problem building
# ---------------------------------------------------------------------------


def test_build_problem_sources(tmp_path):
    p = build_problem(ProblemSpec(source="synthetic", m=10, n=4), seed=1)
    assert p.A.shape == (10, 4)
    p = build_problem(ProblemSpec(source="conditioned", m=12, n=4, ratio=40.0), seed=1)
    assert p.A.shape == (12, 4)
    mtx = tmp_path / "t.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n2 2 1\n3 3 1\n")
    p = build_problem(ProblemSpec(source="mtx", path=str(mtx)), seed=1)
    assert p.A.shape == (3, 3)
    p = build_problem(ProblemSpec(source="ac", topology="cycle", nodes=6), seed=1)
    assert p.A.shape == (6, 6)
    p = build_problem(ProblemSpec(source="three-lines"), seed=1)
    assert p.label == "three-lines"
    p = build_problem(ProblemSpec(source="adversarial", m=30, n=30), seed=1)
    assert p.A.shape == (30, 30)


def test_build_problem_validates():
    with pytest.raises(ConfigError, match="unknown problem source"):
        build_problem(ProblemSpec(source="magic"), seed=0)
    with pytest.raises(ConfigError, match="unknown topology"):
        build_problem(ProblemSpec(source="ac", topology="torus"), seed=0)


def test_problem_dimensions_are_whole_numbers():
    # m = 20.0 or nodes = 6.0 once validated and then died in the build with
    # a bare TypeError
    spec = ProblemSpec(source="synthetic", m=20.0, n=5)
    assert build_problem(spec, seed=1).A.shape == (20, 5)
    assert type(spec.m) is int and type(spec.n) is int
    spec = ProblemSpec(source="ac", nodes=6.0)
    assert build_problem(spec, seed=1).A.shape[1] == 6
    assert type(spec.nodes) is int
    for name in ("m", "n", "nodes"):
        for value in (20.5, 0, math.inf, math.nan, "20"):
            with pytest.raises(ConfigError, match=f"'{name}' must be a whole number >= 1"):
                replace(ProblemSpec(source="synthetic"), **{name: value})


def test_parse_adversarial_rejects_m_other_than_n():
    # an adversarial system is built from n alone: m = 10, n = 40 gave 40x40
    with pytest.raises(ConfigError, match="'m' must equal 'n'"):
        parse_config("[problem]\nsource = adversarial\nm = 10\nn = 40\n")
    with pytest.raises(ConfigError, match="'m' must equal 'n'"):
        parse_config("[problem]\nsource = adversarial\nm = 40\n")  # n = 50
    for text in ("m = 40\nn = 40\n", "n = 40\n", ""):
        spec = parse_config("[problem]\nsource = adversarial\n" + text)
        assert build_problem(spec.problem, seed=1).A.shape == (spec.problem.n,) * 2
    spec = parse_config("[problem]\nsource = synthetic\nm = 10\nn = 4\n")
    assert build_problem(spec.problem, seed=1).A.shape == (10, 4)


# ---------------------------------------------------------------------------
# direction metrics
# ---------------------------------------------------------------------------


def test_direction_metrics_eigen_directions():
    problem = build_problem(ProblemSpec(source="synthetic", m=8, n=4), seed=5)
    res = svd_small(problem.A)
    v_min = res.V[:, res.rank - 1]
    v_max = res.V[:, 0]
    s_min = res.singular_values[res.rank - 1]
    s_max = res.singular_values[0]

    ratio, overlap = compute_direction_metrics(0.7 * v_min, problem, v_min)
    assert ratio == pytest.approx(s_min, rel=1e-10)
    assert overlap == pytest.approx(1.0, abs=1e-12)

    ratio, overlap = compute_direction_metrics(2.0 * v_max, problem, v_min)
    assert ratio == pytest.approx(s_max, rel=1e-10)
    assert overlap == pytest.approx(0.0, abs=1e-10)


def test_direction_metrics_random_direction():
    problem = build_problem(ProblemSpec(source="synthetic", m=9, n=5), seed=6)
    res = svd_small(problem.A)
    v_min = res.V[:, res.rank - 1]
    u = np.random.default_rng(3).standard_normal(5)
    u /= np.linalg.norm(u)
    ratio, _ = compute_direction_metrics(u, problem, v_min)
    coords = res.V.T @ u
    want_sq = float(np.sum(res.singular_values ** 2 * coords[:len(res.singular_values)] ** 2))
    assert ratio ** 2 == pytest.approx(want_sq, abs=1e-10)


def test_direction_metrics_at_solution():
    problem = build_problem(ProblemSpec(source="synthetic", m=8, n=4), seed=7)
    res = svd_small(problem.A)
    v_min = res.V[:, res.rank - 1]
    assert compute_direction_metrics(np.zeros(4), problem, v_min) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# experiment driver and CSV output
# ---------------------------------------------------------------------------


def test_run_experiment_outputs(tmp_path):
    spec = _tiny_spec(tmp_path)
    result = run_experiment(spec, out_dir=tmp_path)
    assert result.trace_path.is_file()
    assert result.summary_path.is_file()
    assert result.meta_path.is_file()

    trace_rows = list(csv.reader(io.StringIO(result.trace_path.read_text())))
    assert tuple(trace_rows[0]) == TRACE_COLUMNS
    summary_rows = list(csv.reader(io.StringIO(result.summary_path.read_text())))
    assert tuple(summary_rows[0]) == SUMMARY_COLUMNS
    assert len(summary_rows) == 1 + 2  # one row per (config, trial)
    for fields in summary_rows[1:]:
        assert fields[0] == "tiny"
        assert fields[1] == "rrdr[r=2,a=0.5]"
        assert fields[3] == "converged"

    meta = result.meta_path.read_text()
    assert f"schema_version = {SCHEMA_VERSION}" in meta
    assert "seed = 99" in meta
    assert "row_action_convention" in meta
    assert "rates.rrdr[r=2,a=0.5].rate_thm1" in meta


def test_run_experiment_rrdr_rates_at_beta_zero(tmp_path):
    spec = parse_config("[problem]\nm = 12\nn = 5\n[solvers]\n"
                        "methods = rrdr, mrrdr\nr = 2\nbeta = 0.0, 0.4\n"
                        "[run]\ntrials = 1\nmax_row_actions = 100\n")
    text = run_experiment(spec, out_dir=tmp_path).meta_path.read_text()
    meta = dict(line.split(" = ", 1) for line in text.splitlines())
    for key in ("q", "gamma1"):
        assert meta[f"rates.rrdr[r=2,a=0.5].{key}"] \
            == meta[f"rates.mrrdr[r=2,a=0.5,b=0].{key}"]
    assert float(meta["rates.rrdr[r=2,a=0.5].gamma2"]) == 0.0


def _count_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_run_experiment_factors_the_matrix_once(tmp_path, monkeypatch):
    # the problem build, the even-r rank check and the rate report share one SVD
    calls = _count_svd_calls(monkeypatch)
    result = run_experiment(_tiny_spec(tmp_path), out_dir=tmp_path)
    assert calls == [(12, 5)]
    assert result.rates
    assert "problem.sigma_min" not in result.meta_path.read_text()


def test_adversarial_run_factors_the_matrix_once(tmp_path, monkeypatch):
    # v_min, the even-r rank check and the rate report share one SVD
    calls = _count_svd_calls(monkeypatch)
    spec = _tiny_spec(tmp_path, problem=ProblemSpec(source="adversarial", n=12))
    result = run_experiment(spec, out_dir=tmp_path)
    assert calls == [(12, 12)]
    assert result.rates
    assert "problem.sigma_min" in result.meta_path.read_text()
    rows = list(csv.DictReader(io.StringIO(result.trace_path.read_text())))
    assert all(row["dir_ratio"] and row["vmin_overlap"] for row in rows)


def test_run_experiment_rows_sorted_within_trial(tmp_path):
    spec = _tiny_spec(tmp_path)
    result = run_experiment(spec, out_dir=tmp_path)
    rows = list(csv.reader(io.StringIO(result.trace_path.read_text())))[1:]
    seen = {}
    for f in rows:
        key = (f[1], int(f[2]))
        ra = int(f[4])
        assert float(f[5]) >= 0.0
        if key in seen:
            assert ra >= seen[key]
        seen[key] = ra


def test_run_experiment_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    res_a = run_experiment(_tiny_spec(tmp_path), out_dir=a_dir)
    res_b = run_experiment(_tiny_spec(tmp_path), out_dir=b_dir)
    assert res_a.trace_path.read_bytes() == res_b.trace_path.read_bytes()
    assert res_a.summary_path.read_bytes() == res_b.summary_path.read_bytes()
    # meta matches apart from the informational wall-clock line
    meta_a = [l for l in res_a.meta_path.read_text().splitlines()
              if not l.startswith("wall_clock")]
    meta_b = [l for l in res_b.meta_path.read_text().splitlines()
              if not l.startswith("wall_clock")]
    assert meta_a == meta_b


def test_csv_columns_are_record_attributes():
    # each row is (experiment, solver, trial) and then its record's fields
    assert TRACE_COLUMNS[:3] == SUMMARY_COLUMNS[:3] == ("experiment", "solver", "trial")
    assert set(TRACE_COLUMNS[3:]) <= {f.name for f in fields(TraceRecord)}
    assert set(SUMMARY_COLUMNS[3:]) <= {f.name for f in fields(RunResult)}


def _write_all(tmp_path, num, integer):
    """The trace, summary and meta text of one run whose values are ``num``
    and ``integer`` applied to Python scalars."""
    rec = TraceRecord(k=integer(3), row_actions=integer(6), rse=num(0.25),
                      residual_norm2=num(0.1), dir_ratio=None, vmin_overlap=num(1e-17))
    res = RunResult(status="converged", iterations=integer(3), row_actions=integer(6),
                    rse=num(0.25), x=None, records=[rec], state=None)
    spec = _tiny_spec(tmp_path)
    problem = three_lines_failure_problem()
    report = rate_report(spectral_scalars(problem.A), 0.5, 0.0, 3)
    report = replace(report, **{key: num(getattr(report, key)) for key in
                                ("rate_thm1", "rate_thm2", "q", "beta_max")})
    _write_trace(tmp_path / "trace.csv", "tiny", [("rrdr", 0, res)])
    _write_summary(tmp_path / "summary.csv", "tiny", [("rrdr", 0, res)])
    _write_meta(tmp_path / "meta.txt", spec, problem, {"rrdr": report}, num(0.5), 0.0)
    return [(tmp_path / name).read_text()
            for name in ("trace.csv", "summary.csv", "meta.txt")]


def test_writers_write_numpy_scalars_as_python_scalars(tmp_path):
    (tmp_path / "py").mkdir()
    (tmp_path / "np").mkdir()
    want = _write_all(tmp_path / "py", float, int)
    got = _write_all(tmp_path / "np", np.float64, np.int64)
    assert got == want
    trace, summary, meta = got
    assert trace.splitlines()[1] == "tiny,rrdr,0,3,6,0.25,0.1,,1e-17"
    assert summary.splitlines()[1] == "tiny,rrdr,0,converged,3,6,0.25"
    assert "rates.rrdr.rate_thm1 = 0.5\n" in meta
    assert "problem.sigma_min = 0.5\n" in meta


def test_run_experiment_identity_rk_budget(tmp_path):
    # alternating projections on an identity system: each action zeroes one
    # error coordinate, so 2*ceil(log(tol)/log(0.5)) = 80 actions is generous
    mtx = tmp_path / "id.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 1\n")
    spec = ExperimentSpec(
        problem=ProblemSpec(source="mtx", path=str(mtx)),
        configs=[SolverConfig(method="rk",
                              stop=StopRule(rse_tol=1e-12, max_row_actions=10_000))],
        trials=3, seed=7, out_dir=str(tmp_path), label="ident")
    result = run_experiment(spec, out_dir=tmp_path)
    for _, _, res in result.runs:
        assert res.status == "converged"
        assert res.row_actions <= 80


def test_run_experiment_reports_rates_on_a_nearly_rank_one_matrix(tmp_path):
    # delta2 once rounded above 1 here, so the r = 2 rate report raised, and
    # the meta lost the rates of every config, r = 1 too
    mtx = tmp_path / "near.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n2\n4.00000001\n")
    spec = ExperimentSpec(
        problem=ProblemSpec(source="mtx", path=str(mtx)),
        configs=[SolverConfig(method="rrdr", r=r, stop=StopRule(max_row_actions=20))
                 for r in (1, 2)],
        trials=1, seed=0, out_dir=str(tmp_path), label="near")
    meta = run_experiment(spec, out_dir=tmp_path).meta_path.read_text()
    for config in spec.configs:
        assert f"rates.{config.label()}.rate_thm1 = " in meta


def test_run_experiment_failure_contrast(tmp_path):
    spec = ExperimentSpec(
        problem=ProblemSpec(source="three-lines"),
        configs=[
            SolverConfig(method="det-rsets-dr", alpha=0.5,
                         stop=StopRule(rse_tol=1e-12, max_iterations=1000)),
            SolverConfig(method="rrdr", r=3, alpha=0.5,
                         stop=StopRule(rse_tol=1e-12, max_row_actions=10_000)),
        ],
        trials=2, seed=0, out_dir=str(tmp_path), label="contrast")
    result = run_experiment(spec, out_dir=tmp_path)
    by_method = {}
    for label, _, res in result.runs:
        by_method.setdefault(label.split("[")[0], set()).add(res.status)
    assert by_method["det-rsets-dr"] == {"budget-exhausted"}
    assert by_method["rrdr"] == {"converged"}


def test_run_experiment_reports_rates_on_three_lines(tmp_path):
    # the rate lines were once left out of three-lines metas
    spec = ExperimentSpec(
        problem=ProblemSpec(source="three-lines"),
        configs=[SolverConfig(method="rrdr", r=3, alpha=0.5, stop=StopRule(max_row_actions=30))],
        trials=1, seed=0, out_dir=str(tmp_path), label="lines")
    result = run_experiment(spec, out_dir=tmp_path)
    expected = rate_report(spectral_scalars(three_lines_failure_problem().A), 0.5, 0.0, 3)
    assert result.rates == {"rrdr[r=3,a=0.5]": expected}
    assert f"rates.rrdr[r=3,a=0.5].rate_thm1 = {expected.rate_thm1!r}\n" \
        in result.meta_path.read_text()


def test_run_experiment_ac_line(tmp_path):
    spec = ExperimentSpec(
        problem=ProblemSpec(source="ac", topology="line", nodes=3),
        configs=[SolverConfig(method="rrdr", r=2, alpha=0.5,
                              stop=StopRule(rse_tol=1e-12, max_row_actions=100_000))],
        trials=2, seed=3, out_dir=str(tmp_path), label="ac-line")
    result = run_experiment(spec, out_dir=tmp_path)
    target = result.problem.x0_star
    assert np.allclose(target, target[0])  # consensus target is constant
    for _, _, res in result.runs:
        assert res.status == "converged"
        assert np.linalg.norm(res.x - target) <= 1e-6 * (1.0 + np.linalg.norm(target))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def test_preset_names():
    names = set(figure_presets())
    assert names == {"fig-param-sweep", "fig-r-sweep", "fig-vs-cyclic",
                     "fig-baselines", "fig-direction", "fig-failure"}


def test_preset_param_sweep_contents():
    spec = preset("fig-param-sweep")
    pairs = {(c.alpha, c.beta) for c in spec.configs}
    assert (0.5, 0.4) in pairs
    assert spec.allow_divergence  # sweep cells may diverge by design
    assert all(c.method == "mrrdr" for c in spec.configs)


def test_preset_direction_contents():
    spec = preset("fig-direction")
    assert spec.problem.source == "adversarial"
    assert sorted(c.r for c in spec.configs) == [1, 2, 3, 4, 10, 20]
    assert all(c.alpha == 0.5 for c in spec.configs)
    assert all(c.stop.max_row_actions == 30_000 for c in spec.configs)
    assert spec.trials == 1


def test_preset_baselines_contents():
    spec = preset("fig-baselines")
    methods = [c.method for c in spec.configs]
    for required in ("rk", "rek", "rgs", "rp-admm", "mrrdr"):
        assert required in methods
    admm = next(c for c in spec.configs if c.method == "rp-admm")
    assert admm.penalty == 1.0


def test_preset_failure_contents():
    spec = preset("fig-failure")
    assert spec.problem.source == "three-lines"
    assert {c.method for c in spec.configs} == {"det-rsets-dr", "rrdr"}
    assert not spec.allow_divergence


def test_preset_scaling():
    spec = preset("fig-param-sweep", scale=0.1)
    assert spec.problem.m == 20
    assert spec.problem.n == 5
    with pytest.raises(ConfigError, match="scale must be positive"):
        figure_presets(scale=0.0)


def test_experiment_seed_is_a_whole_number():
    # a seed of 1.5 once ran the experiment of seed 1
    spec = preset("fig-failure")
    for seed in (1.5, math.inf, math.nan, -1, 2 ** 64, "3"):
        with pytest.raises(ConfigError, match="seed must be a 64-bit unsigned integer"):
            replace(spec, seed=seed)
    assert replace(spec, seed=3.0).seed == 3


def test_experiment_whole_float_seed_writes_the_int_seed(tmp_path):
    # seed = 3.0 ran the experiment of seed 3 but wrote "seed = 3.0" to meta
    spec = preset("fig-failure", seed=3)
    metas = []
    for seed in (3, 3.0):
        res = run_experiment(replace(spec, seed=seed), out_dir=tmp_path / str(seed))
        metas.append([line for line in res.meta_path.read_text().splitlines()
                      if not line.startswith("wall_clock")])
    assert metas[0] == metas[1]
    assert "seed = 3" in metas[0]


def test_experiment_trials_is_a_whole_number(tmp_path):
    # trials of 1.5 or 2.0 once validated and then died in range() with a TypeError
    spec = _tiny_spec(tmp_path)
    for trials in (1.5, 0, -2, math.inf, math.nan, "2"):
        with pytest.raises(ConfigError, match="trials must be a whole number >= 1"):
            replace(spec, trials=trials)
    result = run_experiment(replace(spec, trials=2.0), out_dir=tmp_path)
    assert len(result.runs) == 2
    assert "trials = 2\n" in result.meta_path.read_text()


# sha256 of each preset's ordered (label, stop rule, trace_every) configs, its
# problem fields, trials and allow_divergence, at the default scale and seed:
# the config order fixes each trial's child seed, so a reordered preset moves
PRESET_DIGESTS = {
    "fig-baselines": "123f377cea99323c0ae82f80e3acd2f67a26eb53a9bab1c8e75c4139ebaf8390",
    "fig-direction": "88ee5eb40c7698d38f8730e1caa5dc63e0897b736093bdd9a599352059e04487",
    "fig-failure": "156cb2638dc3b3c29a82d28ddb465bf32975ffed325ff0af5b1c2f678e2776bf",
    "fig-param-sweep": "64bdef5f29f3f8ce7e1a1bab6d8ed7ad6f3206e35129b6903a133f8f5500bd78",
    "fig-r-sweep": "9f1e8d963ba1b3fd31f9a7e9ebe1cf578011b2615c0aa712e612a70a2d858aca",
    "fig-vs-cyclic": "fae80facc056a1a451c4032ffb01d7b618013bdc50717f052bdd49b18aa3f8a3",
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_configs_digest(name):
    spec = preset(name)
    text = repr(([(c.label(), astuple(c.stop), c.trace_every) for c in spec.configs],
                 astuple(spec.problem), spec.trials, spec.allow_divergence))
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[name]


def test_specs_check_themselves_when_built(tmp_path):
    # a bad spec once existed until run_experiment or build_problem met it
    with pytest.raises(ConfigError, match="unknown problem source: magic"):
        ProblemSpec(source="magic")
    with pytest.raises(ConfigError, match="no solver configs requested"):
        ExperimentSpec(problem=ProblemSpec(source="three-lines"), configs=[])
    with pytest.raises(ConfigError, match="seed must be a 64-bit unsigned integer"):
        preset("fig-failure", seed=-1)
    spec = _tiny_spec(tmp_path)
    with pytest.raises(FrozenInstanceError):
        spec.seed = 3
    with pytest.raises(FrozenInstanceError):
        spec.problem.m = 3


def test_spec_configs_cannot_be_changed_in_place(tmp_path):
    # a list of configs once could be emptied after the spec checked it
    spec = preset("fig-failure")
    assert isinstance(spec.configs, tuple)
    with pytest.raises(AttributeError):
        spec.configs.clear()
    with pytest.raises(AttributeError):
        spec.configs.append(spec.configs[0])
    with pytest.raises(ConfigError, match="no solver configs requested"):
        replace(_tiny_spec(tmp_path), configs=[])


def test_preset_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset 'fig-nope'"):
        preset("fig-nope")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


RUN_CONFIG = """
[problem]
source = synthetic
m = 20
n = 8
label = cli-smoke

[solvers]
methods = rk

[run]
trials = 2
seed = 5
rse_tol = 1e-10
max_row_actions = 20000
trace_every = 0
"""


def test_cli_run_ok(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RUN_CONFIG)
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status=converged" in out
    assert (tmp_path / "out" / "cli-smoke_trace.csv").is_file()


def test_cli_run_writes_to_the_config_out_without_out_flag(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RUN_CONFIG + f"out = {tmp_path / 'from-config'}\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    assert (tmp_path / "from-config" / "cli-smoke_summary.csv").is_file()


def test_cli_run_seed_overrides_the_config_seed(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RUN_CONFIG)
    code = cli.main(["run", str(cfg), "--seed", "7", "--out", str(tmp_path / "cli")])
    assert code == cli.EXIT_OK
    want = run_experiment(replace(parse_config_file(cfg), seed=7), out_dir=tmp_path / "api")
    assert "seed = 7\n" in (tmp_path / "cli" / want.meta_path.name).read_text()
    for path in (want.trace_path, want.summary_path):
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()
    capsys.readouterr()
    assert cli.main(["run", str(cfg), "--seed", "-1"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be a 64-bit unsigned integer\n"


def test_cli_preset_writes_to_out_without_out_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["preset", "fig-failure"]) == cli.EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "fig-failure_meta.txt", "fig-failure_summary.csv", "fig-failure_trace.csv"]


def test_cli_run_missing_file(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "absent.cfg")])
    assert code == cli.EXIT_IO
    assert "no such config file" in capsys.readouterr().err


def test_cli_run_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[problem]\nwidth = 4\n")
    code = cli.main(["run", str(cfg)])
    assert code == cli.EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_cli_run_tolerates_divergence(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text("""
[problem]
source = synthetic
m = 20
n = 8
label = div

[solvers]
methods = mrrdr
r = 2
alpha = 0.9
beta = 0.95

[run]
trials = 2
seed = 1
max_iterations = 10000
""")
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK  # recorded as status, not an error
    assert "status=diverged" in capsys.readouterr().out


def test_cli_preset_divergence_exit(tmp_path, monkeypatch, capsys):
    diverging = ExperimentSpec(
        problem=ProblemSpec(source="synthetic", m=20, n=8),
        configs=[SolverConfig(method="mrrdr", r=2, alpha=0.9, beta=0.95,
                              stop=StopRule(rse_tol=1e-12, max_iterations=10_000))],
        trials=2, seed=1, label="forced", allow_divergence=False)
    monkeypatch.setattr(cli, "preset", lambda name, scale, seed: diverging)
    code = cli.main(["preset", "anything", "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGED
    assert "ended with diverged" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_cli_preset_rejects_scale_that_is_not_finite(scale, capsys):
    # inf once ended in an OverflowError traceback, nan in numpy's message
    assert cli.main(["preset", "fig-failure", "--scale", scale]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: scale must be positive and finite\n"


def test_cli_preset_rejects_scale_that_overflows_a_dimension(capsys):
    # 500 * 1e306 is inf, which once ended in an OverflowError traceback
    assert cli.main(["preset", "fig-failure", "--scale", "1e306"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: scale is too large: a preset dimension overflows\n"


def test_cli_unknown_preset(capsys):
    code = cli.main(["preset", "fig-nope"])
    assert code == cli.EXIT_USAGE
    assert "unknown preset" in capsys.readouterr().err


def test_cli_rates(tmp_path, capsys):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(MINIMAL)
    code = cli.main(["rates", str(cfg)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "rate_thm1=" in out
    assert "beta_max=" in out


def test_cli_rates_rejected_problem(tmp_path, capsys):
    cfg = tmp_path / "infeasible.cfg"
    cfg.write_text("[problem]\nsource = conditioned\nm = 40\nn = 20\nratio = 5\n")
    code = cli.main(["rates", str(cfg)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["rates", "run"])
def test_cli_matrix_whose_squared_norms_overflow(tmp_path, capsys, command):
    # finite 1e160 entries: rates once ended in an OverflowError traceback,
    # and run blamed the sampler weights
    mtx = tmp_path / "huge.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 2 3\n1 1 1e160\n2 2 1e160\n3 1 1e160\n")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"[problem]\nsource = mtx\npath = {mtx}\n")
    code = cli.main([command, str(cfg), "--out", str(tmp_path / "out")] if command == "run"
                    else [command, str(cfg)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: invalid matrix: squared norms overflow\n"


@pytest.mark.parametrize("run_keys, message", [
    ("rse_tol = 0", "rse_tol must be positive"),
    ("rse_tol = none\nmax_row_actions = none", "no finite stopping bound"),
    ("max_iterations = 0", "max_iterations must be a whole number >= 1"),
    ("max_row_actions = -3", "max_row_actions must be a whole number >= 1"),
])
def test_cli_run_bad_stop_rule(tmp_path, capsys, run_keys, message):
    cfg = tmp_path / "stop.cfg"
    cfg.write_text(f"[run]\n{run_keys}\n")
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: invalid parameter: {message}\n"


def test_cli_run_iteration_budget_past_int64(tmp_path, capsys):
    # once an OverflowError traceback and exit 1
    cfg = tmp_path / "big.cfg"
    cfg.write_text(RUN_CONFIG.replace("max_row_actions = 20000", "max_row_actions = none\n"
                                      "max_iterations = 100000000000000000000"))
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK, err
    assert "status=converged" in out and "Traceback" not in err


def test_cli_rates_even_r_on_rank_one(tmp_path, capsys):
    cfg = tmp_path / "rank1.cfg"
    cfg.write_text("[problem]\nsource = ac\ntopology = line\nnodes = 2\n"
                   "[solvers]\nmethods = rrdr\nr = 2\n")
    code = cli.main(["rates", str(cfg)])
    assert code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert err == "error: even-r requires rank >= 2\n"
    assert out == ""


def test_cli_presets_listing(capsys):
    code = cli.main(["presets"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out.split()
    assert "fig-direction" in out and len(out) == 6


def test_cli_usage_errors(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert cli.main(["check"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["--help"]) == cli.EXIT_OK
