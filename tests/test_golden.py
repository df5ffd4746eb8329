"""Golden digests: one config and seed give byte-identical CSVs.

The sha256 of each trace and summary CSV is pinned for a small set of preset
runs that together reach every method, beta = 0 and beta > 0, and the
converged, diverged and budget-exhausted statuses.  The ``fig-r-sweep`` slice
runs lanes of several r, with and without momentum, in one block.
Each slice's ``_meta.txt`` is pinned without its ``wall_clock_seconds`` line,
so a refactor of ``theory`` that moves a bit of a ``rates.*`` line shows.

A refactor of the solvers or the harness either keeps these digests or
updates them on purpose, with the reason recorded in CHANGES.md.  A second
digest per slice covers only the summary's solver, trial, status, iterations
and row-action columns, which rounding does not move: a change that moves
only rounding shows as bytes moved, counts held.

The digests were computed with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64,
DYNAMIC_ARCH build), Python 3.11.  Another BLAS build may sum dot products in
another order and change the last bits of the CSVs.  ``run`` advances all
trials of a method as one block and takes each lane's dots with ``np.vecdot``
over contiguous rows gathered from A or from its transpose; the reflections,
rk's projections and rek's column steps gather their rows from the unit
tables ``Matrix.unit_rows`` and ``Matrix.unit_columns``, each row of A or Aᵀ
over its norm.  The digests rest on those dots summing each row exactly as
``ndarray.dot`` does, which
``tests/test_solvers.py::test_lane_dot_matches_ndarray_dot`` checks by name.  The synthetic digests
take ``x0_star`` from LAPACK's SVD of the problem matrix; they read the same
with one and with two BLAS threads.

Only the summary of ``fig-direction`` is pinned.  The ``dir_ratio`` and
``vmin_overlap`` columns of its trace use the singular vector of its 500x500
matrix, and LAPACK's blocked SVD of that matrix changes in the last bits with
the BLAS thread count: the trace digest differs between
``OPENBLAS_NUM_THREADS=1`` and ``2``.  Its summary does not.
"""

import csv
import hashlib
from dataclasses import replace

import pytest

from rdr_lab.harness import preset, run_experiment
from rdr_lab.solvers import METHODS

SEED = 12345
TRIALS = 2

# (alpha, beta) cells of fig-param-sweep kept at r = 3; the last one diverges
SWEEP_CELLS = ((0.1, 0.8), (0.5, 0.4), (0.9, 0.8))
# r values of fig-r-sweep kept, each with and without momentum: one block
# mixes reflection prefixes and lanes with and without momentum
R_SWEEP_RS = (1, 2, 7, 20)

# r values of fig-direction kept, one trial each: the r = 1 lane runs alone,
# on the adversarial source, after the other lanes spend their budgets
DIRECTION_RS = (1, 2, 20)
DIRECTION_SUMMARY = "b49d35ca1fdd0c4c59e0cbf7ef8831d3baa78b68a97b7b7dac486983afb34b38"

GOLDEN = {
    "fig-failure": (
        "759f7e996a2a9f3f8a6d19fe96f362ee8dddf2cedaeb4bae65215273d999996b",
        "7b1815dafbb358d2d48a5c3a789d0fef6a2beb4b56c6cf18ac4a5cb6ccc47574"),
    "fig-baselines": (
        "f12027ac0fab84156390c85556e2278c21f5d922213b1b20a216c8c65200f6c2",
        "45e032816f083ea8aaa6d54932732ee87eba88a321e67fae344f915c4844c78f"),
    "fig-vs-cyclic": (
        "8495dc8c55360a68c4d46e5948ce4c398e79c3012327f39f8e0fc0a56d5c116b",
        "2fdb6b7c5fed77d4486b057e6498b1ff38ae9abc44059d2ec7d7fd98cbce0a4e"),
    "fig-r-sweep": (
        "86c03d5057154a90cdd0d188a0d9065b0786a71a9cbdca6055cada68d60d6b88",
        "4bb318082c7b8d4111381b8ea047fb1fbacae0954d2c9506902d2b13295fccf2"),
    "fig-param-sweep": (
        "f7ae4d95a99b41e1daaabceddd3f7fbd67d6e41081e3e66bbd05a5482a180a8f",
        "5897604d3124eb79bf6c984788e7b4eb789719620eee6d0e31c7bb4dcf3a54b5"),
}


# sha256 of each slice's meta without its wall_clock_seconds line
META = {
    "fig-baselines": "7c9b77ca91ff2b2a0052497db698baf003590220295f2797a5f091ad43191e97",
    "fig-failure": "47f85bf0f3ddfde7adb6e2fbe3b2c79ffd6698bc56e56917ef7767f21581683c",
    "fig-param-sweep": "322b48e146a73d61d8c1a547fad608afe2fcda28e120ddcdc80926b3c19e5beb",
    "fig-r-sweep": "95ca4cb706d978ccc3209d6fc1c67e36b4c2e5545b12026d491f76c6f7e37d23",
    "fig-vs-cyclic": "fa0592ddb6302940ec701d2a6b042ccdc44683eb29ba9bc334370b90c160fb54",
}

# sha256 of the COUNT_COLUMNS of each slice's summary, a line a row
COUNT_COLUMNS = ("solver", "trial", "status", "iterations", "row_actions")
COUNTS = {
    "fig-baselines": "b69ab22d148e386d04c7972e2e63bd76bb3ec283795c3c422da0eb06c50e5a62",
    "fig-direction": "ae65786347cadcd1b634124538816a100cfff080f4c0daf8b299f8e477be9dc4",
    "fig-failure": "3a94e4730075025b45044fe73f1dec032b95c19545b6955b1b869dcf9506bc9e",
    "fig-param-sweep": "c5c9a3afd4cc2667bc919b9f44d9d1a3d6f371fcd49ad85ba5730336dc3c8693",
    "fig-r-sweep": "747a89293941226530ab8d6f927fef326745b8d7739f8f81153e25634e575bce",
    "fig-vs-cyclic": "79ca58ac4c72c2a0a707e5fb1044e2568be3c43b614c997fa7ec3725c69d5608",
}


def _spec(name):
    spec = replace(preset(name, seed=SEED), trials=TRIALS)
    if name == "fig-param-sweep":
        spec = replace(spec, configs=[c for c in spec.configs
                                      if c.r == 3 and (c.alpha, c.beta) in SWEEP_CELLS])
    if name == "fig-r-sweep":
        spec = replace(spec, configs=[c for c in spec.configs if c.r in R_SWEEP_RS])
    return spec


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    specs = {name: _spec(name) for name in GOLDEN}
    return {name: (spec, run_experiment(spec, out_dir=out / name))
            for name, spec in specs.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_digests(name, outputs):
    result = outputs[name][1]
    assert (_sha256(result.trace_path), _sha256(result.summary_path)) \
        == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(META))
def test_golden_meta_digests(name, outputs):
    lines = outputs[name][1].meta_path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("wall_clock_seconds = "))
    assert hashlib.sha256(kept.encode("utf-8")).hexdigest() == META[name]


@pytest.fixture(scope="module")
def direction(tmp_path_factory):
    spec = preset("fig-direction", seed=SEED)
    spec = replace(spec, configs=[c for c in spec.configs if c.r in DIRECTION_RS])
    return spec, run_experiment(spec, out_dir=tmp_path_factory.mktemp("direction"))


def test_direction_summary_digest(direction):
    spec, result = direction
    iterations = {config.r: res.iterations
                  for config, (_, _, res) in zip(spec.configs, result.runs)}
    assert iterations[1] > max(iterations[r] for r in DIRECTION_RS[1:])
    assert _sha256(result.summary_path) == DIRECTION_SUMMARY


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_preset_statuses_and_counts_digest(name, request):
    # the runs of the byte-digest tests, read for the columns rounding keeps
    _, result = request.getfixturevalue("direction") if name == "fig-direction" \
        else request.getfixturevalue("outputs")[name]
    with open(result.summary_path, newline="") as f:
        lines = [",".join(row[c] for c in COUNT_COLUMNS) for row in csv.DictReader(f)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COUNTS[name]


def test_golden_inputs_reach_every_method_and_status(outputs):
    configs = [c for spec, _ in outputs.values() for c in spec.configs]
    statuses = {res.status for _, result in outputs.values()
                for _, _, res in result.runs}
    assert {c.method for c in configs} == set(METHODS)
    assert {"converged", "diverged", "budget-exhausted"} <= statuses
    betas = {c.beta for c in configs if c.method == "mrrdr"}
    assert 0.0 in betas and any(b > 0.0 for b in betas)
    # one run call mixes reflection counts and lanes with and without momentum
    assert any(len({c.r for c in spec.configs if c.method == "mrrdr"}) > 1
               and {c.beta > 0.0 for c in spec.configs if c.method == "mrrdr"}
               == {False, True} for spec, _ in outputs.values())
