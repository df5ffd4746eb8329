"""rdr-lab benchmark: figure-preset workloads, end to end and per layer.

    python3 benchmarks/run.py --workload param-sweep --seed 1 --seconds 60 --trace 0

Each pass of a workload runs in a fresh process (``worker.py``) and every
output of every pass is checked.  With ``--trace 0`` passes repeat while
another one is expected to end within ``--seconds`` (at least one pass); the
times of each pass are scaled to a fixed host speed measured by a reference
loop run between its trials (``speed.py``), and the end-to-end metrics are
means over passes.  With ``--trace 1`` one
untraced and one traced pass give the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.  Without
``--workload`` all four workloads run in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS, preset_seed  # noqa: E402

# every BLAS call in these workloads is at most 500 x 500; with two BLAS
# threads on a shared 2-core machine the set-up SVD took 0.25 s to 1.8 s in
# back-to-back passes, with one it stayed within 0.22-0.26 s
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "row_actions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sampling.sample_many_us.r2": "us",
    "sampling.sample_many_us.r20": "us",
    "sampling.sample_us": "us",
    "sampling.permutation_us": "us",
    "sampling.child_us": "us",
    "solvers.step_us.mrrdr-r2": "us",
    "solvers.step_us.mrrdr-r20": "us",
    "solvers.step_us.rrdr-r1": "us",
    "solvers.step_us.rk": "us",
    "solvers.step_us.rek": "us",
    "solvers.step_us.rgs": "us",
    "solvers.step_us.rp-admm": "us",
    "solvers.step_us.cyclic-dr": "us",
    "solvers.step_us.det-rsets-dr": "us",
    "solvers.run_s": "s",
    "solvers.calls": "count",
    "solvers.iterations": "count",
    "solvers.row_actions": "count",
    "solvers.us_per_row_action": "us",
    "solvers.driver_us_per_iteration": "us",
    "linalg.svd_s": "s",
    "linalg.svd_calls": "count",
    "linalg.spectral_scalars_s": "s",
    "linalg.spectral_scalars_calls": "count",
    "linalg.projected_solution_s": "s",
    "linalg.projected_solution_calls": "count",
    "problems.build_s": "s",
    "problems.build_calls": "count",
    "theory.rate_report_s": "s",
    "theory.rate_report_calls": "count",
    "harness.write_s": "s",
    "harness.write_calls": "count",
    "harness.output_bytes": "bytes",
    "harness.trace_rows": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    out = HERE / "out" / workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--preset-seed", str(preset_seed(workload, seed, index)), "--out", str(out)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload}: pass did not end within the run limit") from None
    finally:
        # also reached on SIGTERM (see main): the worker never outlives us
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise PassFailed(f"{workload}: pass exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def at_nominal_speed(p: dict) -> tuple[float, float, float]:
    """A pass's ``wall_s`` and ``setup_s`` scaled to the host speed at which
    the reference loop takes ``speed.NOMINAL_S``, and the median scale.

    Each trial is scaled by the mean of the reference loops on either side
    of it; the rest of the pass (set-up, rate report, output), about 1-8% of
    it, by the median scale of the pass.
    """
    refs = p["reference_s"]
    scales = [2.0 * speed.NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    scale = median(scales)
    trials = sum(t * f for t, f in zip(p["trial_s"], scales, strict=True))
    rest = (p["wall_s"] - sum(p["trial_s"])) * scale
    return trials + rest, p["setup_s"] * scale, scale


def end_to_end(workload: str, seed: int, seconds: float, limit: float):
    """Untraced passes until the next one would end after ``seconds``."""
    t0 = time.monotonic()
    passes, lengths = [], []
    while True:
        start = time.monotonic()
        passes.append(run_worker(workload, seed, len(passes), False, limit))
        lengths.append(time.monotonic() - start)
        now = time.monotonic()
        if now - t0 + median(lengths) > min(seconds, limit - t0):
            break
    scaled = [at_nominal_speed(p) for p in passes]
    # means over passes: the instances differ in work, by up to a quarter
    # on baselines, and a mean of ten spreads less than their median
    metrics = {
        "wall_s": fmean(w for w, _, _ in scaled),
        "setup_s": fmean(s for _, s, _ in scaled),
        "row_actions_per_s": sum(p["row_actions"] for p in passes)
        / sum(w - s for w, s, _ in scaled),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    print(f"measured at host speed: wall_s {median(p['wall_s'] for p in passes):.4g} s, "
          f"setup_s {median(p['setup_s'] for p in passes):.4g} s; "
          f"scale to nominal speed {median(f for _, _, f in scaled):.3f} "
          f"({min(f for _, _, f in scaled):.3f}-{max(f for _, _, f in scaled):.3f} over passes)")
    return passes, metrics


def per_layer(workload: str, seed: int, limit: float):
    plain = run_worker(workload, seed, 0, False, limit)
    traced = run_worker(workload, seed, 0, True, limit)
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    return [plain, traced], metrics, traced["missing"]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    limit = time.monotonic() + RUN_LIMIT_S
    if trace:
        passes, values, missing = per_layer(workload, seed, limit)
    else:
        passes, values = end_to_end(workload, seed, seconds, limit)
        missing = []
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": all(p["failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for note in [n for p in passes for n in p["notes"]][:20]:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"workload={workload} seed={seed} trace={trace} passes={len(passes)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        flag = "  (missing: never called)" if name in missing else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{flag}")
    raw = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    raw.parent.mkdir(exist_ok=True)
    raw.write_text(json.dumps({"passes": passes, "result": result}) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rdr-lab benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; all four when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rdr_lab" / "__init__.py").is_file():
        print(f"error: no rdr_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    results = []
    try:
        for workload in ([args.workload] if args.workload else list(WORKLOADS)):
            results.append(run_workload(workload, args.seed, args.seconds, args.trace))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
