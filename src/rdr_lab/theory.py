"""Closed-form convergence-rate formulas and exact one-step oracles.

Everything here is a deterministic function of the spectrum: per-iteration
contraction factors, momentum parameter regions, the expected-iterate map,
and a brute-force enumeration over all row sequences for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (SpectralScalars, as_matrix, projected_solution,
                     reflect_row, svd_small)
from .sampling import _whole

ENUM_BUDGET = 10 ** 6


def _check_alpha(alpha):
    if not (0.0 < alpha < 1.0):
        raise ValueError("invalid parameter: alpha must lie in (0, 1)")


def _check_beta(beta):
    if not 0.0 <= beta < math.inf:
        raise ValueError("invalid parameter: beta must be >= 0")


def _check_r(r):
    if _whole(r) is None or r < 1:
        raise ValueError("invalid parameter: r must be a positive integer")


def _q_min(spec: SpectralScalars) -> float:
    # eigenvalue of I - 2 A^T A / ||A||_F^2 at sigma_min
    return 1.0 - 2.0 * spec.sigma_min ** 2 / spec.frob_sq


def _q_max(spec: SpectralScalars) -> float:
    return 1.0 - 2.0 * spec.sigma_max ** 2 / spec.frob_sq


def rate_thm1(spec: SpectralScalars, alpha: float, r: int) -> float:
    """Per-iteration factor for the expected squared error.

    ``alpha**2 + (1-alpha)**2 + 2 alpha (1-alpha) (1 - 2 sigma_min^2 /
    frob_sq)**r``; for r = 1 this collapses to ``1 - 4 alpha (1-alpha)
    sigma_min^2 / frob_sq``.
    """
    _check_alpha(alpha)
    _check_r(r)
    return (alpha * alpha + (1.0 - alpha) ** 2
            + 2.0 * alpha * (1.0 - alpha) * _q_min(spec) ** r)


def delta1(spec: SpectralScalars, r: int) -> float:
    """Spectral radius driving the mean-iterate rate.

    Odd r: ``1 - 2 sigma_min^2 / frob_sq``.  Even r: the largest
    ``|1 - 2 sigma_i^2 / frob_sq|`` over nonzero singular values, attained at
    an endpoint of the spectrum because the map is convex in sigma^2.
    """
    _check_r(r)
    if r % 2 == 1:
        return _q_min(spec)
    if spec.rank < 2:
        raise ValueError("even-r requires rank >= 2")
    return delta2(spec)


def delta2(spec: SpectralScalars) -> float:
    """Largest ``|1 - 2 sigma_i^2 / frob_sq|`` over nonzero singular values,
    clamped at its bound 1, which rounding passes on a nearly rank-one spectrum."""
    return min(1.0, max(abs(_q_min(spec)), abs(_q_max(spec))))


def rate_thm2(spec: SpectralScalars, alpha: float, r: int) -> float:
    """Per-iteration factor for the squared norm of the expected error."""
    _check_alpha(alpha)
    d1 = delta1(spec, r)
    return (1.0 - alpha * (1.0 - d1 ** r)) ** 2


def singular_decay_factor(sigma: float, frob_sq: float, alpha: float, r: int) -> float:
    """Exact per-iteration factor of the expected error along one right
    singular direction: ``(1-alpha) + alpha (1 - 2 sigma^2 / frob_sq)**r``."""
    _check_alpha(alpha)
    _check_r(r)
    return (1.0 - alpha) + alpha * (1.0 - 2.0 * sigma * sigma / frob_sq) ** r


@dataclass(frozen=True)
class MomentumRegion:
    """Momentum convergence certificate in expectation-of-squared-error."""

    gamma1: float
    gamma2: float
    q: float        # one-iteration contraction implied by (gamma1, gamma2)
    tau: float      # q - gamma1
    beta_max: float  # largest beta with a valid certificate at this (alpha, r)
    feasible: bool   # gamma1 + gamma2 < 1 for the requested beta


def momentum_linear_region(spec: SpectralScalars, alpha: float, r: int,
                           beta: float) -> MomentumRegion:
    """Certificate constants for the momentum variant at given ``beta``.

    ``q = (gamma1 + sqrt(gamma1**2 + 4 gamma2)) / 2`` bounds the decay of the
    expected squared error; ``beta_max`` solves ``gamma1 + gamma2 = 1`` in
    beta, so any ``beta < beta_max`` is certified.
    """
    _check_alpha(alpha)
    _check_r(r)
    _check_beta(beta)
    d2 = delta2(spec)
    base = rate_thm1(spec, alpha, r)
    g1 = base + 2.0 * beta * beta + 3.0 * (1.0 - alpha + alpha * d2 ** r) * beta
    g2 = 2.0 * beta * beta + (1.0 - alpha) * beta + 2.0 * beta * alpha * d2 ** r
    q = 0.5 * (g1 + math.sqrt(g1 * g1 + 4.0 * g2))
    tau1 = 4.0 * (1.0 - alpha) + 5.0 * alpha * d2 ** r
    tau2 = 2.0 * alpha * (1.0 - alpha) * (1.0 - _q_min(spec) ** r)
    beta_max = (math.sqrt(tau1 * tau1 + 16.0 * tau2) - tau1) / 8.0
    return MomentumRegion(gamma1=g1, gamma2=g2, q=q, tau=q - g1,
                          beta_max=beta_max, feasible=g1 + g2 < 1.0)


def momentum_accel_region(spec: SpectralScalars, alpha: float, r: int):
    """Admissible (alpha, beta) window for the accelerated mean-iterate rate.

    Returns ``(alpha_max, beta_lo)``: the result needs ``alpha < alpha_max``
    and ``beta in (beta_lo, 1)``, in which case the expected error decays
    like ``beta**k``.
    """
    _check_alpha(alpha)
    denom = 1.0 - _q_max(spec) ** r
    alpha_max = 1.0 if denom <= 0.0 else min(1.0, 1.0 / denom)
    # delta1 <= 1 (delta2 is clamped at 1), so the root is real
    beta_lo = (1.0 - math.sqrt(alpha * (1.0 - delta1(spec, r) ** r))) ** 2
    return alpha_max, beta_lo


def characteristic_roots(sigmas, frob_sq: float, alpha: float, beta: float, r: int):
    """Per-direction second-order recurrence roots for the momentum mean map.

    For each nonzero singular value the expected error coordinate obeys
    ``s_{k+1} = d_i s_k - beta s_{k-1}``; returns the root pairs of
    ``t**2 - d_i t + beta`` as a complex (len, 2) array.  When the
    discriminant is negative both roots have squared modulus exactly beta.
    """
    _check_alpha(alpha)
    _check_r(r)
    sig = np.asarray(sigmas, dtype=np.float64)
    d = (1.0 - alpha + beta) + alpha * (1.0 - 2.0 * sig * sig / frob_sq) ** r
    # the complex square root of a real discriminant (imaginary part +0) is
    # exactly (sqrt(disc), 0) or (0, sqrt(-disc)), the roots of a sign test
    sq = np.sqrt((d * d - 4.0 * beta).astype(np.complex128))
    return np.stack([(d + sq) / 2.0, (d - sq) / 2.0], axis=-1)


class MeanMap:
    """Expected one-step error map of the (momentum) solver.

    ``E[x_{k+1} - x*] = M1 (x_k - x*) - beta (x_{k-1} - x*)`` with
    ``M1 = (1 - alpha + beta) I + alpha (I - 2 A^T A / frob_sq)**r``,
    diagonal in the right singular basis.
    """

    def __init__(self, V, decay, beta):
        self.V = V
        self.decay = decay  # diagonal of M1 in the V basis
        self.beta = beta

    def matrix(self) -> np.ndarray:
        return (self.V * self.decay) @ self.V.T

    def apply(self, err, err_prev) -> np.ndarray:
        """Expected next error given current and previous errors."""
        s = self.V.T @ err
        out = self.V @ (self.decay * s)
        if self.beta != 0.0:
            out = out - self.beta * np.asarray(err_prev, dtype=np.float64)
        return out

    def trajectory(self, err0, steps: int) -> np.ndarray:
        """Expected error after 0..steps solver steps from a cold start.

        The momentum solver starts with ``x_prev = x0``, so the first step
        uses factor ``decay - beta`` per coordinate and the recurrence
        ``s_{k+1} = decay * s_k - beta * s_{k-1}`` afterwards.
        """
        if (steps := _whole(steps)) is None or steps < 0:
            raise ValueError("invalid parameter: steps must be a whole number >= 0")
        err0 = np.asarray(err0, dtype=np.float64)
        s = np.empty((steps + 1, err0.size))
        s[0] = self.V.T @ err0
        if steps >= 1:
            s[1] = (self.decay - self.beta) * s[0]
        for k in range(1, steps):
            s[k + 1] = self.decay * s[k] - self.beta * s[k - 1]
        return s @ self.V.T


def _reflection_spectrum(mat, r: int):
    """``V`` and the eigenvalues of ``(I - 2 A^T A / frob_sq)**r`` in that
    basis; 1 on the null directions past the singular values.  Raises
    ``zero matrix`` at rank 0, as :func:`spectral_scalars` does."""
    res = svd_small(mat)
    if res.rank == 0:
        raise ValueError("zero matrix")
    sig_sq = np.zeros(mat.n)
    sig_sq[:res.singular_values.size] = res.singular_values ** 2
    return res.V, (1.0 - 2.0 * sig_sq / mat.frob_sq) ** r


def mean_map(A, alpha: float, beta: float, r: int) -> MeanMap:
    """Build the expected-iterate map descriptor for a matrix."""
    _check_alpha(alpha)
    _check_r(r)
    _check_beta(beta)
    V, eig = _reflection_spectrum(as_matrix(A), r)
    return MeanMap(V=V, decay=(1.0 - alpha + beta) + alpha * eig, beta=beta)


def enumerate_one_step(A, b, x, x_prev, alpha: float, beta: float, r: int):
    """Exact one-step expectation by enumerating all m**r row sequences.

    Returns ``(mean_next, mean_sq_dist)``: the probability-weighted average
    of the next iterate, and of its squared distance to the projection of
    ``x`` onto the solution set.  Instances must satisfy ``m**r <= 10**6``.
    """
    _check_alpha(alpha)
    _check_r(r)
    _check_beta(beta)
    mat = as_matrix(A)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    m = mat.m
    if m ** r > ENUM_BUDGET:
        raise ValueError("enumeration too large")
    if mat.frob_sq == 0.0:
        raise ValueError("zero matrix")
    x_ref = projected_solution(mat, b, x)
    weights = mat.row_norms_sq / mat.frob_sq
    arr = mat.entries
    rn = mat.row_norms_sq
    momentum = beta * (x - x_prev)
    base = (1.0 - alpha) * x + momentum
    mean_next = np.zeros(mat.n)
    mean_sq = 0.0
    for rows in itertools.product(range(m), repeat=r):
        # zero-norm rows have zero sampling weight; skip their branches
        if any(rn[j] == 0.0 for j in rows):
            continue
        w = 1.0
        z = x
        for j in rows:
            w *= weights[j]
            z = reflect_row(z, arr[j], b[j], rn[j])
        nxt = base + alpha * z
        mean_next += w * nxt
        diff = nxt - x_ref
        mean_sq += w * float(diff @ diff)
    return mean_next, mean_sq


def angle_expectation_half(A, x, x_star, r: int) -> float:
    """Expected squared cosine between successive error directions at
    alpha = 1/2: ``1/2 + 1/2 * u^T (I - 2 A^T A / frob_sq)**r u`` for the
    unit error ``u``."""
    _check_r(r)
    mat = as_matrix(A)
    x = np.asarray(x, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    err = x - x_star
    nrm_sq = float(err @ err)
    if nrm_sq == 0.0:
        raise ValueError("undefined direction: x equals x_star")
    u = err / math.sqrt(nrm_sq)
    V, eig = _reflection_spectrum(mat, r)
    coords = V.T @ u
    return 0.5 + 0.5 * float(coords @ (eig * coords))


@dataclass(frozen=True)
class RateReport:
    """All closed-form rate quantities for one (matrix, alpha, beta, r)."""

    alpha: float
    beta: float
    r: int
    sigma_min: float
    sigma_max: float
    frob_sq: float
    rank: int
    rate_thm1: float
    rate_thm2: float
    delta1: float
    delta2: float
    gamma1: float
    gamma2: float
    q: float
    tau: float
    beta_max: float
    momentum_feasible: bool
    alpha_max_accel: float
    beta_lo_accel: float


def rate_report(spec: SpectralScalars, alpha: float, beta: float, r: int) -> RateReport:
    """Evaluate every rate formula at one parameter point."""
    region = momentum_linear_region(spec, alpha, r, beta)
    alpha_max, beta_lo = momentum_accel_region(spec, alpha, r)
    return RateReport(
        alpha=alpha, beta=beta, r=r,
        sigma_min=spec.sigma_min, sigma_max=spec.sigma_max,
        frob_sq=spec.frob_sq, rank=spec.rank,
        rate_thm1=rate_thm1(spec, alpha, r),
        rate_thm2=rate_thm2(spec, alpha, r),
        delta1=delta1(spec, r),
        delta2=delta2(spec),
        gamma1=region.gamma1, gamma2=region.gamma2,
        q=region.q, tau=region.tau, beta_max=region.beta_max,
        momentum_feasible=region.feasible,
        alpha_max_accel=alpha_max, beta_lo_accel=beta_lo,
    )
