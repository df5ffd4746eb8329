"""Command-line interface.

Exit codes: 0 success, 1 usage or validation error, 2 I/O error,
3 divergence in a preset or run that does not tolerate it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (build_problem, figure_presets, parse_config_file, preset,
                      rate_reports, run_experiment)
from .linalg import spectral_scalars
from .sampling import child_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DIVERGED = 3


def _finish(result, allow_divergence: bool) -> int:
    bad = [(label, trial, res.status) for label, trial, res in result.runs
           if res.status in ("diverged", "numerical-divergence")]
    for label, trial, res in result.runs:
        print(f"{result.spec.label} {label} trial={trial} status={res.status} "
              f"k={res.iterations} row_actions={res.row_actions} rse={res.rse:.3e}")
    print(f"wrote {result.trace_path}")
    print(f"wrote {result.summary_path}")
    print(f"wrote {result.meta_path}")
    if bad and not allow_divergence:
        for label, trial, status in bad:
            print(f"error: {label} trial={trial} ended with {status}",
                  file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _read_config(path):
    if not Path(path).is_file():
        raise FileNotFoundError(f"no such config file: {path}")
    return parse_config_file(path)


def _cmd_run(args) -> int:
    spec = _read_config(args.config)
    if args.seed is not None:
        spec.seed = args.seed
    return _finish(run_experiment(spec, out_dir=args.out), allow_divergence=True)


def _cmd_preset(args) -> int:
    spec = preset(args.name, scale=args.scale, seed=args.seed)
    return _finish(run_experiment(spec, out_dir=args.out),
                   allow_divergence=spec.allow_divergence)


def _cmd_rates(args) -> int:
    spec = _read_config(args.config)
    problem = build_problem(spec.problem, child_seed(spec.seed, 0))
    reports = rate_reports(spec, problem)
    scal = spectral_scalars(problem.A)
    m, n = problem.shape
    print(f"problem {problem.label}: m={m} n={n} rank={scal.rank} "
          f"sigma_min={scal.sigma_min:.6e} sigma_max={scal.sigma_max:.6e} "
          f"frob_sq={scal.frob_sq:.6e}")
    for label, rep in reports.items():
        print(f"{label}: rate_thm1={rep.rate_thm1:.10f} "
              f"rate_thm2={rep.rate_thm2:.10f} q={rep.q:.10f} "
              f"beta_max={rep.beta_max:.6f} feasible={rep.momentum_feasible}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name in sorted(figure_presets()):
        print(name)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdr-lab",
        description="Row-action solver experiments for consistent linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(handler=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named figure preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--scale", type=float, default=1.0)
    p_preset.add_argument("--seed", type=int, default=12345)
    p_preset.add_argument("--out", default="out")
    p_preset.set_defaults(handler=_cmd_preset)

    p_rates = sub.add_parser("rates", help="print closed-form rate predictions")
    p_rates.add_argument("config")
    p_rates.set_defaults(handler=_cmd_rates)

    sub.add_parser("presets", help="list preset names").set_defaults(
        handler=_cmd_presets)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for I/O
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:  # ConfigError, or a value a build or solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
