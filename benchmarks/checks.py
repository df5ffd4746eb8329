"""Checks of one experiment's outputs against computations made apart from
the program.

The reference for every problem comes from LAPACK through numpy
(``np.linalg.svd``, ``lstsq`` or ``solve``), and the rates and the momentum
certificate are recomputed from the LAPACK singular values by the paper's
closed forms.  Nothing is compared with a stored copy of earlier output.

A fault in the problem (``x0_star``, ``sigma_min``) fails every trial of the
experiment, a wrong or missing rate line fails every trial of its config,
and everything else fails the one trial it concerns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import expectation

EPS = float(np.finfo(np.float64).eps)
X0_STAR_RTOL = 1e-10
SPECTRAL_RTOL = 1e-9
# the recomputed sqrt(RSE) may differ from the reported one by the distance
# between the program's x0_star and the reference, in units of |x0 - x0_star|
SQRT_RSE_ATOL = 1e-9
DIRECTION_RTOL = 1e-6
STALL_RTOL = 1e-9
DIVERGENCE_RSE = 1e6


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


@dataclass
class Reference:
    sigma: np.ndarray  # nonzero singular values, descending
    v_min: np.ndarray  # right singular vector of sigma[-1]
    frob_sq: float
    x0_star: np.ndarray


def reference(problem) -> Reference:
    """LAPACK reference for a problem: spectrum and the projection of x0
    onto the solution set."""
    A = np.array(problem.A.entries, dtype=np.float64)
    m, n = A.shape
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(m, n) * EPS))
    if m == n and rank == n:
        x_ls = np.linalg.solve(A, problem.b)
    else:
        x_ls = np.linalg.lstsq(A, problem.b, rcond=None)[0]
    x0_star = x_ls
    if rank < n:
        vr = vt[:rank].T
        x0_star = x_ls + problem.x0 - vr @ (vr.T @ problem.x0)
    return Reference(sigma=s[:rank], v_min=vt[rank - 1], frob_sq=float(np.sum(A * A)),
                     x0_star=x0_star)


def closed_forms(ref: Reference, alpha: float, beta: float, r: int):
    """``(rate_thm1, rate_thm2, certified)`` from the paper's closed forms.

    ``certified`` is the momentum certificate gamma1 + gamma2 < 1.
    """
    q_min = 1.0 - 2.0 * ref.sigma[-1] ** 2 / ref.frob_sq
    q_max = 1.0 - 2.0 * ref.sigma[0] ** 2 / ref.frob_sq
    d2 = max(abs(q_min), abs(q_max))
    d1 = q_min if r % 2 == 1 else d2
    thm1 = alpha ** 2 + (1.0 - alpha) ** 2 + 2.0 * alpha * (1.0 - alpha) * q_min ** r
    thm2 = (1.0 - alpha * (1.0 - d1 ** r)) ** 2
    g1 = thm1 + 2.0 * beta ** 2 + 3.0 * (1.0 - alpha + alpha * d2 ** r) * beta
    g2 = 2.0 * beta ** 2 + (1.0 - alpha) * beta + 2.0 * beta * alpha * d2 ** r
    return float(thm1), float(thm2), bool(g1 + g2 < 1.0)


def _rel_close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _norm(v) -> float:
    return float(np.sqrt(v @ v))


def read_meta(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key] = value.strip()
    return out


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _budget_reached(stop, res) -> bool:
    return ((stop.max_row_actions is not None and res.row_actions >= stop.max_row_actions)
            or (stop.max_iterations is not None and res.iterations >= stop.max_iterations))


def trial_faults(preset_name, config, res, row, last, problem, ref, certified):
    """Reasons one trial fails its checks; empty when it passes."""
    faults = []
    if row is None or (row["status"], int(row["iterations"]), int(row["row_actions"])) \
            != (res.status, res.iterations, res.row_actions) \
            or not _same(float(row["rse"]), res.rse):
        faults.append("summary row differs from the run")
    if last is None or (int(last["k"]), int(last["row_actions"])) \
            != (res.iterations, res.row_actions) or not _same(float(last["rse"]), res.rse):
        faults.append("last trace record is not the final state")

    den = _norm(problem.x0 - ref.x0_star) ** 2
    rse = _norm(res.x - ref.x0_star) ** 2 / den if den > 0.0 else 0.0
    if math.isfinite(res.rse) and abs(math.sqrt(rse) - math.sqrt(res.rse)) \
            > SQRT_RSE_ATOL * (1.0 + math.sqrt(rse)):
        faults.append(f"final iterate has RSE {rse:.6e}, summary says {res.rse:.6e}")

    stop = config.stop
    if res.status == "converged":
        if stop.rse_tol is None or not rse < stop.rse_tol:
            faults.append(f"converged, but recomputed RSE {rse:.3e} is not below rse_tol")
    elif res.status in ("diverged", "numerical-divergence"):
        if math.isfinite(rse) and rse <= DIVERGENCE_RSE:
            faults.append(f"{res.status}, but recomputed RSE {rse:.3e} <= {DIVERGENCE_RSE:g}")
        if certified:
            faults.append(f"{res.status} inside the momentum certificate")
    elif res.status == "budget-exhausted":
        if not _budget_reached(stop, res):
            faults.append("budget-exhausted before reaching its budget")
    else:
        faults.append(f"unknown status {res.status!r}")

    want = expectation(preset_name, config)
    if want == "converge" and res.status != "converged":
        faults.append(f"expected to converge, ended {res.status}")
    if want == "stall":
        if res.status == "converged":
            faults.append("expected to stall, converged")
        if _norm(res.x - problem.x0) > STALL_RTOL * _norm(problem.x0):
            faults.append("iterate moved away from x0")

    if last is not None and last["dir_ratio"] != "":
        e = res.x - ref.x0_star
        ne = _norm(e)
        ratio = _norm(problem.A.entries @ e) / ne if ne > 0.0 else 0.0
        overlap = abs(float(e @ ref.v_min)) / ne if ne > 0.0 else 0.0
        if not (_rel_close(float(last["dir_ratio"]), ratio, DIRECTION_RTOL)
                and _rel_close(float(last["vmin_overlap"]), overlap, DIRECTION_RTOL)):
            faults.append("direction metrics differ from the LAPACK recomputation")
    return faults


def check_experiment(preset_name: str, result) -> Verdict:
    """Check one ``ExperimentResult`` and the files it wrote."""
    spec, problem = result.spec, result.problem
    ref = reference(problem)
    meta = read_meta(result.meta_path)
    summary = read_rows(result.summary_path)
    last = {}
    for row in read_rows(result.trace_path):
        last[(row["solver"], int(row["trial"]))] = row

    shared = []
    err = _norm(problem.x0_star - ref.x0_star)
    scale = max(_norm(ref.x0_star), _norm(problem.x0 - ref.x0_star))
    if not err <= X0_STAR_RTOL * scale:
        shared.append(f"x0_star off the LAPACK reference by {err:.3e}")
    if "problem.sigma_min" in meta and not _rel_close(
            float(meta["problem.sigma_min"]), float(ref.sigma[-1]), SPECTRAL_RTOL):
        shared.append("problem.sigma_min differs from LAPACK")
    if len(summary) != len(result.runs):
        shared.append(f"summary has {len(summary)} rows for {len(result.runs)} trials")

    per_config = []
    for config in spec.configs:
        faults = []
        thm1, thm2, certified = closed_forms(ref, config.alpha, config.beta, config.r)
        # the harness reports no rates on three-lines, by design
        if config.method in ("rrdr", "mrrdr") and spec.problem.source != "three-lines":
            for key, want in (("rate_thm1", thm1), ("rate_thm2", thm2)):
                got = meta.get(f"rates.{config.label()}.{key}")
                if got is None or not _rel_close(float(got), want, SPECTRAL_RTOL):
                    faults.append(f"meta {key} is {got}, closed form gives {want!r}")
        # only the momentum variant may diverge, and only outside its certificate
        per_config.append((faults, certified or config.method != "mrrdr"))

    verdict = Verdict(attempted=len(result.runs))
    for i, (label, trial, res) in enumerate(result.runs):
        g = i // spec.trials
        config = spec.configs[g]
        config_faults, certified = per_config[g]
        row = summary[i] if i < len(summary) else None
        faults = shared + config_faults + trial_faults(
            preset_name, config, res, row, last.get((label, trial)), problem, ref,
            certified)
        if faults:
            verdict.failed += 1
            verdict.notes.append(f"{spec.label} {label} trial={trial}: {'; '.join(faults)}")
    return verdict
