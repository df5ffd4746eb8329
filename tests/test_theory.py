"""Rate-formula tests: closed-form factors, momentum parameter regions, the
expected-iterate map, and the exhaustive branch-enumeration oracles."""

import math

import numpy as np
import pytest

from rdr_lab.linalg import Matrix, spectral_scalars
from rdr_lab.problems import gen_gaussian, synthetic_problem
from rdr_lab.sampling import Rng
from rdr_lab.theory import (
    angle_expectation_half,
    characteristic_roots,
    delta1,
    delta2,
    enumerate_one_step,
    mean_map,
    momentum_accel_region,
    momentum_linear_region,
    rate_report,
    rate_thm1,
    rate_thm2,
    singular_decay_factor,
)

ID2 = spectral_scalars(Matrix(np.eye(2)))
ID4 = spectral_scalars(Matrix(np.eye(4)))


def _random_spec(seed, m=8, n=4):
    return spectral_scalars(gen_gaussian(m, n, seed))


# ---------------------------------------------------------------------------
# closed-form factors
# ---------------------------------------------------------------------------


def test_rate1_identity_half():
    assert rate_thm1(ID2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)


def test_rate1_r1_simplification():
    # alpha^2 + (1-alpha)^2 + 2 alpha (1-alpha) (1 - 2 s^2/F) collapses to
    # 1 - 4 alpha (1-alpha) s^2/F when r = 1
    for seed in range(5):
        spec = _random_spec(seed)
        for alpha in (0.2, 0.5, 0.8):
            direct = 1.0 - 4.0 * alpha * (1.0 - alpha) * spec.sigma_min ** 2 / spec.frob_sq
            assert rate_thm1(spec, alpha, 1) == pytest.approx(direct, abs=1e-12)


def test_rate1_in_unit_interval():
    for seed in range(5):
        spec = _random_spec(seed)
        for alpha in (0.1, 0.5, 0.9):
            for r in (1, 2, 3):
                assert 0.0 < rate_thm1(spec, alpha, r) < 1.0


def test_rate1_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="invalid parameter"):
            rate_thm1(ID2, alpha, 1)
    with pytest.raises(ValueError, match="invalid parameter"):
        rate_thm1(ID2, 0.5, 0)


def test_rate_formulas_reject_r_that_is_not_whole():
    # inf once ended in an OverflowError and nan in numpy's conversion message
    for r in (math.inf, math.nan, 1.5):
        for call in (lambda: rate_thm1(ID2, 0.5, r), lambda: delta1(ID2, r),
                     lambda: mean_map(np.eye(2), 0.5, 0.0, r)):
            with pytest.raises(ValueError, match="r must be a positive integer"):
                call()


def test_beta_must_be_finite_and_nonnegative():
    # enumerate_one_step once took any beta, and the others a nan
    A, x = np.eye(2), np.array([1.0, 2.0])
    for beta in (-0.5, math.nan, math.inf):
        for call in (lambda: enumerate_one_step(A, x, x, x, 0.5, beta, 1),
                     lambda: mean_map(A, 0.5, beta, 1),
                     lambda: momentum_linear_region(ID2, 0.5, 1, beta)):
            with pytest.raises(ValueError, match="beta must be >= 0"):
                call()


def test_delta_identity_values():
    assert delta2(ID2) == pytest.approx(0.0, abs=1e-12)
    assert delta2(ID4) == pytest.approx(0.5, abs=1e-12)
    # odd r uses the signed min-value form
    assert delta1(ID4, 1) == pytest.approx(0.5, abs=1e-12)
    assert delta1(ID4, 2) == pytest.approx(0.5, abs=1e-12)


def test_delta_odd_even_split():
    # rank >= 2 forces sigma_max^2 + sigma_min^2 <= F, so the even-r max
    # collapses onto the odd-r value; the split only bites at rank 1
    spec = spectral_scalars(np.diag([3.0, 1.0]))
    odd = delta1(spec, 3)
    even = delta1(spec, 2)
    assert odd == pytest.approx(1.0 - 2.0 / 10.0, abs=1e-12)
    assert even == pytest.approx(odd, abs=1e-12)
    assert delta2(spec) == pytest.approx(max(abs(1 - 2 / 10), abs(1 - 18 / 10)), abs=1e-12)


def test_delta_matches_independent_svd():
    for seed in range(5):
        arr = gen_gaussian(7, 5, 100 + seed).entries
        spec = spectral_scalars(arr)
        sv = np.linalg.svd(arr, compute_uv=False)
        frob = float(np.sum(arr * arr))
        ref_odd = 1.0 - 2.0 * sv[-1] ** 2 / frob
        ref_even = max(abs(1.0 - 2.0 * sv[-1] ** 2 / frob),
                       abs(1.0 - 2.0 * sv[0] ** 2 / frob))
        assert delta1(spec, 1) == pytest.approx(ref_odd, abs=1e-12)
        assert delta1(spec, 2) == pytest.approx(ref_even, abs=1e-12)
        assert delta2(spec) == pytest.approx(ref_even, abs=1e-12)


def test_delta_even_requires_rank_two():
    rank1 = spectral_scalars(np.outer([1.0, 2.0], [3.0, 4.0]))
    with pytest.raises(ValueError, match="even-r requires rank >= 2"):
        delta1(rank1, 2)
    # odd r stays defined: F = sigma^2 at rank 1, so delta1 = -1 exactly
    assert delta1(rank1, 1) == pytest.approx(-1.0, abs=1e-12)


def test_rate2_identity_quarter():
    assert rate_thm2(ID2, 0.5, 1) == pytest.approx(0.25, abs=1e-15)


def test_rate2_vanishing_alpha():
    assert rate_thm2(ID4, 1e-9, 2) == pytest.approx(1.0, abs=1e-8)


def test_decay_factor_balanced_direction():
    # sigma^2 = F/2 zeroes the inner term for every r
    for r in (1, 2, 5):
        for alpha in (0.3, 0.7):
            got = singular_decay_factor(np.sqrt(3.0), 6.0, alpha, r)
            assert got == pytest.approx(1.0 - alpha, abs=1e-14)


def test_decay_factor_r1_half():
    for sig_sq in (0.3, 1.0, 2.5):
        got = singular_decay_factor(np.sqrt(sig_sq), 4.0, 0.5, 1)
        assert got == pytest.approx(1.0 - sig_sq / 4.0, abs=1e-14)


# ---------------------------------------------------------------------------
# momentum regions
# ---------------------------------------------------------------------------


def test_linear_region_beta_zero_reduces():
    for seed in range(4):
        spec = _random_spec(seed)
        reg = momentum_linear_region(spec, 0.5, 2, 0.0)
        assert reg.gamma2 == 0.0
        assert reg.q == pytest.approx(reg.gamma1, abs=1e-14)
        assert reg.gamma1 == pytest.approx(rate_thm1(spec, 0.5, 2), abs=1e-12)


def test_linear_region_beta_max_positive():
    for seed in range(4):
        spec = _random_spec(seed)
        for alpha in (0.2, 0.5, 0.8):
            for r in (1, 2, 3):
                reg = momentum_linear_region(spec, alpha, r, 0.0)
                assert reg.beta_max > 0.0


def test_linear_region_certificate():
    # inside the certified window: gamma1 + gamma2 <= q < 1
    meta = Rng(606)
    for _ in range(10):
        spec = _random_spec(meta.integer(1000), m=6 + meta.integer(6), n=3 + meta.integer(3))
        alpha = 0.15 + 0.7 * meta.uniform()
        r = 1 + meta.integer(3)
        probe = momentum_linear_region(spec, alpha, r, 0.0)
        beta = 0.9 * probe.beta_max * meta.uniform()
        reg = momentum_linear_region(spec, alpha, r, beta)
        assert reg.feasible
        assert reg.gamma1 + reg.gamma2 < 1.0
        assert reg.gamma1 + reg.gamma2 <= reg.q + 1e-14
        assert reg.q < 1.0
        # q solves q^2 = gamma1 q + gamma2
        assert reg.q ** 2 == pytest.approx(reg.gamma1 * reg.q + reg.gamma2, abs=1e-12)
        assert reg.tau == pytest.approx(reg.q - reg.gamma1, abs=1e-14)


def test_linear_region_rate_sandwich():
    # adding momentum never improves the certified one-step factor
    meta = Rng(607)
    for _ in range(10):
        spec = _random_spec(meta.integer(1000))
        alpha = 0.2 + 0.6 * meta.uniform()
        r = 1 + meta.integer(3)
        base = momentum_linear_region(spec, alpha, r, 0.0)
        beta = 0.9 * base.beta_max * meta.uniform()
        reg = momentum_linear_region(spec, alpha, r, beta)
        assert reg.q >= base.q - 1e-14
        assert base.q == pytest.approx(rate_thm1(spec, alpha, r), abs=1e-12)


def test_accel_region_identity():
    alpha_max, _ = momentum_accel_region(ID2, 0.5, 1)
    assert alpha_max == 1.0


def test_accel_region_beta_lo_limit():
    # identity spectrum: delta1 = 0, so beta_lo = (1 - sqrt(alpha))^2 -> 0
    _, beta_lo = momentum_accel_region(ID2, 0.999999, 1)
    assert beta_lo < 1e-11
    _, beta_mid = momentum_accel_region(ID2, 0.25, 1)
    assert beta_mid == pytest.approx(0.25, abs=1e-12)


def test_characteristic_roots_vieta():
    spec_arr = gen_gaussian(6, 3, 55).entries
    sv = np.linalg.svd(spec_arr, compute_uv=False)
    frob_sq = float(np.sum(spec_arr * spec_arr))
    beta = 0.3
    roots = characteristic_roots(sv, frob_sq, 0.5, beta, 2)
    # product of each root pair is the constant term beta
    prod = roots[:, 0] * roots[:, 1]
    assert np.abs(prod - beta).max() <= 1e-12


def test_characteristic_roots_match_the_two_branch_formula():
    # the complex square root of the discriminant gives, bit for bit, the
    # roots of a sign test on it; (sigma, frob_sq) = (1, 2) at alpha = beta
    # = 0.25 makes the discriminant exactly zero
    sig = np.array([0.0, 0.3, 0.7, 1.0, 1.2, 1.4])
    signs = set()
    for frob_sq, alpha, beta, r in ((2.0, 0.25, 0.25, 1), (2.0, 0.5, 0.8, 3),
                                    (3.0, 0.7, 0.05, 2), (4.5, 0.9, 0.6, 5)):
        d = (1.0 - alpha + beta) + alpha * (1.0 - 2.0 * sig * sig / frob_sq) ** r
        disc = d * d - 4.0 * beta
        want = np.empty((sig.size, 2), dtype=np.complex128)
        sq = np.sqrt(np.abs(disc))
        pos = disc >= 0.0
        want[pos, 0] = (d[pos] + sq[pos]) / 2.0
        want[pos, 1] = (d[pos] - sq[pos]) / 2.0
        want[~pos, 0] = (d[~pos] + 1j * sq[~pos]) / 2.0
        want[~pos, 1] = (d[~pos] - 1j * sq[~pos]) / 2.0
        got = characteristic_roots(sig, frob_sq, alpha, beta, r)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        signs.update(np.sign(disc))
    assert signs == {-1.0, 0.0, 1.0}


def test_characteristic_roots_modulus_in_accel_window():
    for seed in (0, 1, 2):
        arr = gen_gaussian(9, 4, 70 + seed).entries
        spec = spectral_scalars(arr)
        alpha = 0.5
        _, beta_lo = momentum_accel_region(spec, alpha, 2)
        beta = 0.5 * (beta_lo + 1.0)
        sv = np.linalg.svd(arr, compute_uv=False)
        roots = characteristic_roots(sv, spec.frob_sq, alpha, beta, 2)
        mods = np.abs(roots) ** 2
        assert np.abs(mods - beta).max() <= 1e-12


# ---------------------------------------------------------------------------
# expected-iterate map
# ---------------------------------------------------------------------------


def test_mean_map_beta0_r1_matrix():
    arr = gen_gaussian(5, 3, 21).entries
    mm = mean_map(arr, 0.5, 0.0, 1)
    frob_sq = float(np.sum(arr * arr))
    expected = np.eye(3) - (arr.T @ arr) / frob_sq
    assert np.abs(mm.matrix() - expected).max() <= 1e-10


def test_mean_map_diagonal_entries():
    arr = gen_gaussian(6, 4, 33).entries
    beta = 0.2
    mm = mean_map(arr, 0.4, beta, 3)
    sv = np.linalg.svd(arr, compute_uv=False)
    frob_sq = float(np.sum(arr * arr))
    for i in range(4):
        want = singular_decay_factor(sv[i], frob_sq, 0.4, 3) + beta
        assert mm.decay[i] == pytest.approx(want, abs=1e-10)


def test_mean_map_null_coordinates_persist():
    # rank-deficient matrix: null-space coordinates have decay exactly 1 + beta - beta
    arr = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mm = mean_map(arr, 0.5, 0.0, 1)
    assert mm.decay[1] == pytest.approx(1.0, abs=1e-14)
    assert mm.decay[2] == pytest.approx(1.0, abs=1e-14)


def test_mean_map_trajectory_matches_decay_powers():
    # beta = 0: coordinate k obeys decay^k exactly, tracked for 50 steps
    arr = gen_gaussian(4, 3, 77).entries
    mm = mean_map(arr, 0.35, 0.0, 2)
    err0 = Rng(7).normal(3)
    traj = mm.trajectory(err0, 50)
    coords0 = mm.V.T @ err0
    for k in (1, 5, 25, 50):
        want = mm.V @ (coords0 * mm.decay ** k)
        assert np.abs(traj[k] - want).max() <= 1e-10


def test_mean_map_trajectory_cold_start():
    # first momentum step uses (decay - beta) because x_prev = x0
    arr = gen_gaussian(4, 3, 78).entries
    beta = 0.3
    mm = mean_map(arr, 0.5, beta, 1)
    err0 = Rng(8).normal(3)
    traj = mm.trajectory(err0, 3)
    np.testing.assert_allclose(traj[1], mm.apply(err0, err0), atol=1e-12)
    np.testing.assert_allclose(traj[2], mm.apply(traj[1], traj[0]), atol=1e-12)


def test_mean_map_trajectory_runs_a_whole_float_step_count():
    mm = mean_map(gen_gaussian(4, 3, 79).entries, 0.5, 0.3, 2)
    err0 = Rng(9).normal(3)
    assert mm.trajectory(err0, 3.0).tobytes() == mm.trajectory(err0, 3).tobytes()


@pytest.mark.parametrize("steps", [-1, 2.5, math.nan, "3"])
def test_mean_map_trajectory_rejects_a_step_count_that_is_not_whole(steps):
    # -1 raised IndexError and 2.5 TypeError
    mm = mean_map(gen_gaussian(4, 3, 79).entries, 0.5, 0.3, 2)
    with pytest.raises(ValueError, match="steps must be a whole number >= 0"):
        mm.trajectory(np.ones(3), steps)


@pytest.mark.parametrize("oracle", [
    lambda A: mean_map(A, 0.5, 0.2, 2),
    lambda A: angle_expectation_half(A, np.ones(3), np.zeros(3), 1),
    lambda A: enumerate_one_step(A, np.zeros(2), np.ones(3), np.ones(3), 0.5, 0.0, 1),
], ids=["mean_map", "angle_expectation_half", "enumerate_one_step"])
def test_oracles_reject_a_zero_matrix(oracle):
    # each divided by frob_sq = 0: a RuntimeWarning, then nan or a zero mean
    with pytest.raises(ValueError, match="zero matrix"):
        oracle(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def test_enumerate_single_row():
    arr = np.array([[2.0, 1.0]])
    b = np.array([1.0])
    x = np.array([1.5, -0.5])
    mean, _ = enumerate_one_step(arr, b, x, x, 0.5, 0.0, 1)
    z = x - (2.0 * (arr[0] @ x - b[0]) / 5.0) * arr[0]
    np.testing.assert_allclose(mean, 0.5 * x + 0.5 * z, atol=1e-14)


def test_enumerate_matches_mean_map():
    rng = Rng(91)
    for m, n, r, beta in ((4, 3, 2, 0.0), (3, 2, 3, 0.25), (5, 4, 1, 0.4)):
        arr = gen_gaussian(m, n, rng.integer(1000)).entries
        x_true = rng.normal(n)
        b = arr @ x_true
        x = rng.normal(n)
        x_prev = rng.normal(n)
        alpha = 0.6
        mean, _ = enumerate_one_step(arr, b, x, x_prev, alpha, beta, r)
        mm = mean_map(arr, alpha, beta, r)
        from rdr_lab.linalg import projected_solution
        x_ref = projected_solution(arr, b, x)
        want = x_ref + mm.apply(x - x_ref, x_prev - x_ref)
        np.testing.assert_allclose(mean, want, atol=1e-12)


def test_enumerate_mean_square_identity():
    # beta = 0: E||x+ - x0*||^2 = (a^2+(1-a)^2)||e||^2 + 2a(1-a) <P^r e, e>
    rng = Rng(92)
    for m, n, r in ((4, 3, 1), (4, 3, 2), (5, 2, 3)):
        arr = gen_gaussian(m, n, rng.integer(1000)).entries
        x_true = rng.normal(n)
        b = arr @ x_true
        x = rng.normal(n)
        alpha = 0.45
        _, mean_sq = enumerate_one_step(arr, b, x, x, alpha, 0.0, r)
        from rdr_lab.linalg import projected_solution
        e = x - projected_solution(arr, b, x)
        frob_sq = float(np.sum(arr * arr))
        P = np.eye(n) - 2.0 * (arr.T @ arr) / frob_sq
        Pr = np.linalg.matrix_power(P, r)
        want = ((alpha ** 2 + (1 - alpha) ** 2) * float(e @ e)
                + 2 * alpha * (1 - alpha) * float(e @ (Pr @ e)))
        assert mean_sq == pytest.approx(want, abs=1e-12)


def test_enumerate_skips_zero_rows():
    arr = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    b = np.array([0.0, 0.0, 0.0])
    x = np.array([1.0, 1.0])
    mean, _ = enumerate_one_step(arr, b, x, x, 0.5, 0.0, 1)
    # only the two nonzero rows contribute, each with weight 1/2
    z0 = np.array([-1.0, 1.0])
    z2 = np.array([1.0, -1.0])
    want = 0.5 * x + 0.5 * (0.5 * z0 + 0.5 * z2)
    np.testing.assert_allclose(mean, want, atol=1e-14)


def test_enumerate_budget():
    arr = gen_gaussian(40, 2, 0).entries
    b = arr @ np.ones(2)
    with pytest.raises(ValueError, match="enumeration too large"):
        enumerate_one_step(arr, b, np.zeros(2), np.zeros(2), 0.5, 0.0, 4)


# ---------------------------------------------------------------------------
# direction-angle expectation
# ---------------------------------------------------------------------------


def test_angle_balanced_spectrum_half():
    # identity 2x2: 2 sigma_i^2 = F for every direction, middle matrix vanishes
    arr = np.eye(2)
    val = angle_expectation_half(arr, np.array([3.0, 1.0]), np.zeros(2), 2)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_angle_matches_enumeration():
    rng = Rng(93)
    for r in (1, 2, 3):
        arr = gen_gaussian(4, 3, rng.integer(1000)).entries
        x_true = rng.normal(3)
        x = rng.normal(3)
        val = angle_expectation_half(arr, x, x_true, r)
        # direct branch enumeration of 1/2 + 1/2 u^T P^r u
        frob_sq = float(np.sum(arr * arr))
        u = (x - x_true) / np.linalg.norm(x - x_true)
        P = np.eye(3) - 2.0 * (arr.T @ arr) / frob_sq
        want = 0.5 + 0.5 * float(u @ (np.linalg.matrix_power(P, r) @ u))
        assert val == pytest.approx(want, abs=1e-12)


def test_angle_stagnant_direction_near_one():
    # tiny sigma_min along u: reflections barely move the direction
    arr = np.diag([10.0, 1e-3])
    x_star = np.zeros(2)
    x = np.array([0.0, 1.0])  # aligned with v_min
    val = angle_expectation_half(arr, x, x_star, 3)
    assert val > 0.999


def test_angle_undefined_at_solution():
    arr = np.eye(2)
    with pytest.raises(ValueError, match="undefined direction"):
        angle_expectation_half(arr, np.ones(2), np.ones(2), 1)


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------


def test_rate_report_fields_consistent():
    spec = _random_spec(12)
    rep = rate_report(spec, 0.5, 0.2, 2)
    assert rep.rate_thm1 == pytest.approx(rate_thm1(spec, 0.5, 2), abs=1e-14)
    assert rep.rate_thm2 == pytest.approx(rate_thm2(spec, 0.5, 2), abs=1e-14)
    reg = momentum_linear_region(spec, 0.5, 2, 0.2)
    assert rep.q == pytest.approx(reg.q, abs=1e-14)
    assert rep.beta_max == pytest.approx(reg.beta_max, abs=1e-14)
    alpha_max, beta_lo = momentum_accel_region(spec, 0.5, 2)
    assert rep.alpha_max_accel == pytest.approx(alpha_max, abs=1e-14)
    assert rep.beta_lo_accel == pytest.approx(beta_lo, abs=1e-14)


def test_delta2_is_at_most_one_on_a_nearly_rank_one_matrix():
    # rank 2, but rounding once put delta2 at 1 + 4.4e-16, and the even-r
    # acceleration window then raised "spectrum admits no acceleration window"
    spec = spectral_scalars(np.array([[1.0, 2.0], [2.0, 4.00000001]]))
    assert spec.rank == 2
    assert rate_report(spec, 0.5, 0.4, 2).delta2 == 1.0
