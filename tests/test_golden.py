"""Golden digests: one config and seed give byte-identical CSVs.

The sha256 of each trace and summary CSV is pinned for a small set of preset
runs that together reach every method, beta = 0 and beta > 0, and the
converged, diverged and budget-exhausted statuses.  The ``fig-r-sweep`` slice
runs lanes of several r, with and without momentum, in one block.
``_meta.txt`` is left out because it records ``wall_clock_seconds``.

A refactor of the solvers or the harness either keeps these digests or
updates them on purpose, with the reason recorded in CHANGES.md.

The digests were computed with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64,
DYNAMIC_ARCH build), Python 3.11.  Another BLAS build may sum dot products in
another order and change the last bits of the CSVs.  ``run`` advances all
trials of a method as one block and takes each lane's dots with ``np.vecdot``
over contiguous rows gathered from A or from its transpose; the digests rest on
that summing each row exactly as ``ndarray.dot`` does, which
``tests/test_solvers.py::test_lane_dot_matches_ndarray_dot`` checks by name.  The synthetic digests
take ``x0_star`` from LAPACK's SVD of the problem matrix; they read the same
with one and with two BLAS threads.

``fig-direction`` is not pinned.  The ``dir_ratio`` and ``vmin_overlap``
columns of its trace use the singular vector of its 500x500 matrix, and
LAPACK's blocked SVD of that matrix changes in the last bits with the BLAS
thread count: the trace digest differs between ``OPENBLAS_NUM_THREADS=1``
and ``2``.  Its summary does not.
"""

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

GOLDEN = {
    "fig-failure": (
        "11d38defc6ab1c41db1a1c20d6c578efc2c6147e14026008c424a17400ecd2e8",
        "b8636c7bdf076fef07112f3fe702c3da545c2f29ccaaaef4ab2f7e14b4549dd7"),
    "fig-baselines": (
        "cab748371046e7e17aab9c489198f1ad7480155c1421c8afc8971550a694a92e",
        "a96352527f058552e0518806a978dd52a09e9100067da501a2e4f5fca37779c0"),
    "fig-vs-cyclic": (
        "3d165fa9f90f1d81d7ced5e76db6659f6e44b986e06469da05fa1dc2bbea91f7",
        "c125bed1a78f3350e07a0ffc1f5339a89ccc7960f02b5c0b98ce42b855d07678"),
    "fig-r-sweep": (
        "de8c5acf2e8e997d146836d30fd34cc1dc8a50c5556f04afe752f4ae48e65517",
        "9062ea3f5922e8cb1ee785d92c79bc63b782081965e9cee0566ee24667bb07ac"),
    "fig-param-sweep": (
        "4b1edc0a8ba33b9404cdeec2a987ea782ca88203b0c1b1e65a5d29e3380251e6",
        "5c93297d5ab8cb80a8bfd14d9dee2e45183d0f3f60a7564a74cba82391ebc7a1"),
}


def _spec(name):
    spec = replace(preset(name, seed=SEED), trials=TRIALS)
    if name == "fig-param-sweep":
        spec.configs = [c for c in spec.configs
                        if c.r == 3 and (c.alpha, c.beta) in SWEEP_CELLS]
    if name == "fig-r-sweep":
        spec.configs = [c for c in spec.configs if c.r in R_SWEEP_RS]
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
