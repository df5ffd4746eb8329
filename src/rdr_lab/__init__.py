"""Randomized r-sets Douglas-Rachford solvers for consistent linear systems."""

from .linalg import (Matrix, SpectralScalars, SvdResult, projected_solution,
                     reflect_row, spectral_scalars, svd_small)
from .problems import (GraphSpec, Problem, gen_ac_problem, gen_conditioned,
                       gen_direction_adversarial, gen_gaussian, gen_solution,
                       load_matrix_market, synthetic_problem,
                       three_lines_failure_problem)
from .sampling import Rng, WeightedSampler
from .solvers import (METHODS, RunResult, Runs, SolverConfig, SolverState,
                      StopRule, run)
from .theory import (MeanMap, RateReport, angle_expectation_half, delta1,
                     delta2, enumerate_one_step, mean_map,
                     momentum_accel_region, momentum_linear_region, rate_report,
                     rate_thm1, rate_thm2, singular_decay_factor)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "SpectralScalars", "SvdResult", "reflect_row",
    "svd_small", "spectral_scalars", "projected_solution",
    "Rng", "WeightedSampler",
    "GraphSpec", "Problem", "gen_gaussian", "gen_conditioned", "gen_solution",
    "gen_ac_problem", "gen_direction_adversarial", "load_matrix_market",
    "synthetic_problem", "three_lines_failure_problem",
    "METHODS", "SolverConfig", "SolverState", "StopRule", "RunResult", "Runs", "run",
    "MeanMap", "RateReport", "rate_thm1", "rate_thm2", "delta1", "delta2",
    "singular_decay_factor", "momentum_linear_region", "momentum_accel_region",
    "mean_map", "enumerate_one_step", "angle_expectation_half", "rate_report",
    "__version__",
]
