"""One pass of one workload in a process of its own.

Runs the workload's presets through ``harness.preset`` and
``harness.run_experiment``, checks every output, and prints one JSON record
as its last line of standard output.  ``run.py`` starts it once per pass:

    python3 benchmarks/worker.py --workload param-sweep --preset-seed 7 --out DIR [--traced]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import micro
import spans
import speed
from checks import Verdict, check_experiment, read_rows
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> SimpleNamespace:
    """The rdr_lab modules from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"rdr_lab.{name}")
            for name in ("harness", "linalg", "problems", "sampling", "solvers", "theory")}
    pkg = Path(sys.modules["rdr_lab"].__file__).resolve().parent
    if pkg != SRC / "rdr_lab":
        raise SystemExit(f"error: imported rdr_lab from {pkg}, not from {SRC}")
    return SimpleNamespace(**mods)


def run_pass(rdr, workload: str, seed: int, out: str):
    """Wall time from the first preset call to the last file written, and
    the results."""
    results = []
    t0 = time.perf_counter()
    for name in WORKLOADS[workload]:
        spec = rdr.harness.preset(name, seed=seed)
        results.append((name, rdr.harness.run_experiment(spec, out_dir=out)))
    return time.perf_counter() - t0, results


def layer_metrics(rec: spans.Recorder, results) -> tuple[dict, list]:
    runs = [s for s in rec.spans if s.name == "run"]
    run_s = sum(s.duration for s in runs)
    row_actions = sum(s.info[3] for s in runs)
    paths = [p for _, res in results
             for p in (res.trace_path, res.summary_path, res.meta_path)]
    out = {
        "linalg.svd_s": rec.total(["svd_small"]),
        "linalg.svd_calls": rec.count("svd_small"),
        "linalg.spectral_scalars_s": rec.total(["spectral_scalars"]),
        "linalg.spectral_scalars_calls": rec.count("spectral_scalars"),
        "linalg.projected_solution_s": rec.total(["projected_solution"]),
        "linalg.projected_solution_calls": rec.count("projected_solution"),
        "problems.build_s": rec.self_time("build_problem"),
        "problems.build_calls": rec.count("build_problem"),
        "theory.rate_report_s": rec.total(["rate_report"]),
        "theory.rate_report_calls": rec.count("rate_report"),
        "solvers.run_s": run_s,
        "solvers.calls": len(runs),
        "solvers.iterations": sum(s.info[2] for s in runs),
        "solvers.row_actions": row_actions,
        "solvers.us_per_row_action": run_s * 1e6 / row_actions if row_actions else 0.0,
        "harness.write_s": rec.total(["write"]),
        "harness.write_calls": rec.count("write"),
        "harness.self_s": rec.self_time("run_experiment"),
        "harness.output_bytes": sum(p.stat().st_size for p in paths),
        "harness.trace_rows": sum(len(read_rows(res.trace_path)) for _, res in results),
    }
    missing = [name for name in out if name.endswith("_calls") and out[name] == 0]
    missing += [name[:-len("calls")] + "s" for name in missing]
    if not runs:
        missing.append("solvers.calls")
    return out, missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--preset-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    rdr = import_program()
    rec = spans.Recorder()
    (spans.wrap_all if args.traced else spans.wrap_untraced)(rec, rdr)
    refs = []
    timed_run = rdr.harness.run
    if not args.traced:
        # the reference loop runs before each trial, outside its span, and
        # once more after the pass: every trial has one on either side
        def run_after_reference(*a, **kw):
            refs.append(speed.reference_s())
            return timed_run(*a, **kw)
        rdr.harness.run = run_after_reference
    try:
        wall, results = run_pass(rdr, args.workload, args.preset_seed, args.out)
    finally:
        rdr.harness.run = timed_run
        rec.restore()
    if not args.traced:
        wall -= sum(refs)
        refs.append(speed.reference_s())
    record = {
        "wall_s": wall,
        "setup_s": rec.total(spans.SETUP_SPANS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "row_actions": sum(int(row["row_actions"]) for _, res in results
                           for row in read_rows(res.summary_path)),
        "trial_s": [s.duration for s in rec.spans if s.name == "run"],
        "reference_s": refs,
    }
    verdict = Verdict()
    for name, res in results:
        verdict.add(check_experiment(name, res))
    record.update(attempted=verdict.attempted, failed=verdict.failed, notes=verdict.notes)

    if args.traced:
        layers, missing = layer_metrics(rec, results)
        primary = results[0][1].problem
        layers.update(micro.sampling_metrics(rdr, primary))
        steps, missing_steps = micro.step_metrics(rdr, primary)
        layers.update(steps)
        layers["solvers.driver_us_per_iteration"] = micro.driver_us_per_iteration(
            rdr, [s for s in rec.spans if s.name == "run"])
        record.update(layers=layers, missing=missing + missing_steps)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
