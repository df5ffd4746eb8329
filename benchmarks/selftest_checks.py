"""Self-tests of the benchmark's output checks.

Each test corrupts one real result and asserts that the checks count it as
a failed trial.  They run in a few seconds:

    python3 -m pytest benchmarks/selftest_checks.py
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import check_experiment  # noqa: E402
from rdr_lab import harness  # noqa: E402
from workloads import WORKLOADS, preset_seed  # noqa: E402


def _run(tmp_path, name, scale=1.0):
    return harness.run_experiment(harness.preset(name, scale=scale, seed=2024),
                                  out_dir=tmp_path)


@pytest.fixture
def failure(tmp_path):
    """fig-failure: det-rsets-dr stalls at x0, rrdr r=3 converges."""
    return _run(tmp_path, "fig-failure")


@pytest.fixture
def cyclic(tmp_path):
    """fig-vs-cyclic at quarter size, so its meta file has rate lines."""
    return _run(tmp_path, "fig-vs-cyclic", scale=0.25)


@pytest.fixture
def direction(tmp_path):
    """fig-direction on a 10x10 adversarial matrix, with direction metrics."""
    return _run(tmp_path, "fig-direction", scale=0.02)


def _index(result, method, status=None):
    for i, (_, _, res) in enumerate(result.runs):
        config = result.spec.configs[i // result.spec.trials]
        if config.method == method and status in (None, res.status):
            return i
    raise LookupError(method)


def _set_run(result, i, **changes):
    label, trial, res = result.runs[i]
    result.runs[i] = (label, trial, replace(res, **changes))


def _rewrite(path, old, new, count=1):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, count), encoding="utf-8")


def test_untouched_results_pass(failure, cyclic, direction):
    for name, result in (("fig-failure", failure), ("fig-vs-cyclic", cyclic),
                         ("fig-direction", direction)):
        verdict = check_experiment(name, result)
        assert verdict.attempted == len(result.runs)
        assert verdict.failed == 0, verdict.notes


def test_perturbed_final_iterate_fails(cyclic):
    i = _index(cyclic, "mrrdr", "converged")
    _set_run(cyclic, i, x=cyclic.runs[i][2].x + 1e-3)
    verdict = check_experiment("fig-vs-cyclic", cyclic)
    assert verdict.failed == 1
    assert "final iterate has RSE" in verdict.notes[0]
    assert "not below rse_tol" in verdict.notes[0]


def test_converged_status_above_tolerance_fails(failure):
    i = _index(failure, "det-rsets-dr")
    _set_run(failure, i, status="converged")
    _rewrite(failure.summary_path, ",budget-exhausted,", ",converged,")
    verdict = check_experiment("fig-failure", failure)
    assert verdict.failed == 1
    assert "converged, but recomputed RSE" in verdict.notes[0]


def test_meta_rate_line_off_by_one_in_a_million_fails(cyclic):
    key = "rates.mrrdr[r=2,a=0.5,b=0.4].rate_thm1 = "
    line = next(ln for ln in cyclic.meta_path.read_text().splitlines()
                if ln.startswith(key))
    value = float(line[len(key):])
    _rewrite(cyclic.meta_path, line, key + repr(value * (1.0 + 1e-6)))
    verdict = check_experiment("fig-vs-cyclic", cyclic)
    assert verdict.failed == cyclic.spec.trials
    assert all("rate_thm1" in note and "b=0.4" in note for note in verdict.notes)


def test_det_rsets_iterate_moved_from_x0_fails(failure):
    i = _index(failure, "det-rsets-dr")
    _set_run(failure, i, x=failure.runs[i][2].x + 1e-6)
    verdict = check_experiment("fig-failure", failure)
    assert verdict.failed == 1
    assert "moved away from x0" in verdict.notes[0]


def test_x0_star_off_the_reference_fails_every_trial(cyclic):
    cyclic.problem.x0_star = cyclic.problem.x0_star * (1.0 + 1e-8)
    verdict = check_experiment("fig-vs-cyclic", cyclic)
    assert verdict.failed == len(cyclic.runs)


def test_wrong_direction_metrics_fail(direction):
    with open(direction.trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    last = max(i for i, row in enumerate(rows) if row[2] == "0")
    rows[last][-1] = repr(float(rows[last][-1]) * (1.0 + 1e-4))
    with open(direction.trace_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    verdict = check_experiment("fig-direction", direction)
    assert verdict.failed == 1
    assert "direction metrics" in verdict.notes[0]


def test_preset_seed_depends_on_seed_workload_and_pass():
    seeds = {preset_seed(w, s, i) for w in WORKLOADS for s in (0, 1) for i in (0, 1)}
    assert len(seeds) == 4 * len(WORKLOADS)
    assert preset_seed("direction", 3, 2) == preset_seed("direction", 3, 2)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
