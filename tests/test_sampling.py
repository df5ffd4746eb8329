"""Seeded-randomness tests: golden sequences, marginal distributions, and
stream determinism."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rdr_lab.sampling import (
    GUIDE_MIN,
    Rng,
    WeightedSampler,
    _splitmix64,
    child_seed,
)

# 99.9% chi-square critical values (standard tables), keyed by df
CHI2_CRIT_999 = {2: 13.8155, 7: 24.3219, 31: 61.0983}


# ---------------------------------------------------------------------------
# seed mixing
# ---------------------------------------------------------------------------


def test_splitmix64_reference_values():
    # first output of the splitmix64 stream from state 0 is the published
    # test vector 0xE220A8397B1DCDAF
    assert _splitmix64(0) == 0xE220A8397B1DCDAF
    assert _splitmix64(1) == 10451216379200822465
    assert _splitmix64(2) == 10905525725756348110
    assert _splitmix64(1234567) == 6457827717110365317
    assert _splitmix64(0xDEADBEEF) == 5395234354446855067


def test_splitmix64_range_and_spread():
    outs = {_splitmix64(z) for z in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2 ** 64 for v in outs)


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------


def test_rng_golden_uniforms():
    np.testing.assert_array_equal(
        Rng(0).uniform(4),
        [0.6369616873214543, 0.2697867137638703,
         0.04097352393619469, 0.016527635528529094])
    np.testing.assert_array_equal(
        Rng(42).uniform(4),
        [0.7739560485559633, 0.4388784397520523,
         0.8585979199113825, 0.6973680290593639])


def test_rng_uniform_fills_out_as_one_draw():
    # slices filled in turn hold the draws of one uniform(size) call, in
    # order, and the stream goes on from the same place
    whole, parts = Rng(99), Rng(99)
    want, got = whole.uniform(1000), np.empty(1000)
    for start, stop in ((0, 1), (1, 300), (300, 300), (300, 301), (301, 1000)):
        filled = parts.uniform(out=got[start:stop])
        np.testing.assert_array_equal(filled, got[start:stop])
    assert got.tobytes() == want.tobytes()
    assert parts.uniform() == whole.uniform()


def test_rng_golden_normals():
    np.testing.assert_array_equal(
        Rng(42).normal(3),
        [0.30471707975443135, -1.0399841062404955, 0.7504511958064572])


def test_rng_same_seed_same_stream():
    a, b = Rng(777), Rng(777)
    np.testing.assert_array_equal(a.uniform(100), b.uniform(100))
    np.testing.assert_array_equal(a.normal(50), b.normal(50))
    assert [a.integer(10) for _ in range(20)] == [b.integer(10) for _ in range(20)]


def test_rng_child_seeds_golden():
    golden = [13679457532755275413, 13432527470776545160,
              3935774486848180498, 1265094156158224713]
    assert [Rng(42).child(i).seed for i in range(4)] == golden
    assert [child_seed(42, i) for i in range(4)] == golden


def test_rng_child_streams_differ():
    parent = Rng(9)
    seen = {parent.child(i).seed for i in range(64)}
    assert len(seen) == 64
    # child streams do not advance or depend on the parent's draw position
    before = Rng(9).child(3).uniform(5)
    p2 = Rng(9)
    p2.uniform(100)
    np.testing.assert_array_equal(p2.child(3).uniform(5), before)


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(1 << 64)
    # a seed that is not a whole number once ran the stream of its int()
    for seed in (1.5, float("inf"), float("nan"), "3"):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            Rng(seed)
    assert Rng(7.0).seed == 7 and Rng(np.uint64(7)).seed == 7


def test_rng_integer_bounds():
    r = Rng(5)
    draws = [r.integer(7) for _ in range(500)]
    assert min(draws) == 0 and max(draws) == 6


# ---------------------------------------------------------------------------
# WeightedSampler
# ---------------------------------------------------------------------------


def test_sampler_fields():
    s = WeightedSampler((1.0, 2.0, 3.0))
    np.testing.assert_array_equal(s.cumulative_weights, [1.0, 3.0, 6.0])
    assert s.total == 6.0
    assert len(s) == 3


def test_sampler_total_matches_frobenius():
    arr = np.random.default_rng(1).standard_normal((40, 7))
    row_sq = np.einsum("ij,ij->i", arr, arr)
    s = WeightedSampler(row_sq)
    frob_sq = float(np.linalg.norm(arr) ** 2)
    assert abs(s.total - frob_sq) <= 1e-12 * frob_sq


def test_sampler_rejects_invalid_weights():
    for bad in ([], [0.0, 0.0], [1.0, -0.5], [np.inf, 1.0], [np.nan], [1e308, 1e308]):
        with pytest.raises(ValueError, match="invalid weights"):
            WeightedSampler(bad)


def test_sampler_single_row():
    s = WeightedSampler([2.5])
    r = Rng(0)
    assert all(s.sample(r) == 0 for _ in range(50))


def test_sampler_zero_weight_never_drawn():
    s = WeightedSampler((0.0, 3.0, 1.0))
    draws = s.sample_many(Rng(12), 200_000)
    counts = np.bincount(draws, minlength=3)
    assert counts[0] == 0
    for i, p in ((1, 0.75), (2, 0.25)):
        bound = 3.0 * np.sqrt(p * (1 - p) / 200_000)
        assert abs(counts[i] / 200_000 - p) <= bound


def test_sampler_golden_sequence():
    s = WeightedSampler((1.0, 2.0, 3.0))
    r = Rng(42)
    assert [s.sample(r) for _ in range(12)] == [2, 1, 2, 2, 0, 2, 2, 2, 0, 1, 1, 2]


def test_sampler_frequencies_one_two_three():
    s = WeightedSampler((1.0, 2.0, 3.0))
    draws = s.sample_many(Rng(314), 10**6)
    counts = np.bincount(draws, minlength=3)
    for i, p in enumerate((1 / 6, 1 / 3, 1 / 2)):
        bound = 3.0 * np.sqrt(p * (1 - p) / 10**6)
        assert abs(counts[i] / 10**6 - p) <= bound


def test_sample_many_matches_scalar_stream():
    s = WeightedSampler((0.5, 1.5, 2.0, 0.0, 1.0))
    batch = s.sample_many(Rng(88), 64)
    r = Rng(88)
    ones = [s.sample(r) for _ in range(64)]
    np.testing.assert_array_equal(batch, ones)


@pytest.mark.parametrize("length,seed,df", [(3, 1001, 2), (8, 1002, 7), (32, 1003, 31)])
def test_sampler_chi_square(length, seed, df):
    # marginals over 1e6 draws stay under the 99.9% critical value
    w = Rng(seed).uniform(length) + 0.05
    s = WeightedSampler(w)
    counts = np.bincount(s.sample_many(Rng(seed + 7), 10**6), minlength=length)
    expected = (w / w.sum()) * 10**6
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CRIT_999[df]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=2**32))
@example(weights=[5e-324], seed=0)  # subnormal total: u * total rounds up
def test_sampler_draws_have_positive_weight(weights, seed):
    w = np.array(weights)
    if not np.any(w > 0.0):
        return
    s = WeightedSampler(w)
    idx = s.sample_many(Rng(seed), 32)
    assert np.all(w[idx] > 0.0)
    r = Rng(seed)
    assert all(w[s.sample(r)] > 0.0 for _ in range(32))


def _zero_laden(rng, n):
    w = np.where(rng.uniform(size=n) < 0.7, 0.0, rng.uniform(size=n))
    w[rng.integers(n)] = 1.0
    return w


_WEIGHTS = {
    "uniform": lambda rng, n: rng.uniform(0.5, 1.5, n),
    "heavy-tailed": lambda rng, n: np.exp(rng.normal(0.0, 8.0, n)),
    "zero-laden": _zero_laden,
    "single-positive": lambda rng, n: 2.5 * (np.arange(n) == rng.integers(n)),
    "subnormal": lambda rng, n: np.array([5e-324]),
}
# scalar, 1-d and 3-d draws on both sides of the guide table's crossover
_SHAPES = ((), (1,), (GUIDE_MIN - 1,), (GUIDE_MIN,), (2, 3, 5), (3, 40, 7))


class _CountingBounds(np.ndarray):
    """Cumulative weights that record the size of each binary search."""

    def searchsorted(self, v, side="left"):
        self.calls.append(np.size(v))
        return np.asarray(self).searchsorted(v, side=side)


def _binary_search(s, w, u):
    bounds = s.cumulative_weights[:np.flatnonzero(w > 0.0)[-1]]
    return np.searchsorted(bounds, np.multiply(u, s.total), side="right")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_WEIGHTS)), st.integers(min_value=1, max_value=300),
       st.sampled_from(_SHAPES), st.integers(min_value=0, max_value=2**32))
def test_lookup_equals_binary_search(kind, n, shape, seed):
    # the guide table starts each draw at or before its index and checks
    # where it lands, so every draw selects what a binary search selects
    rng = np.random.default_rng(seed)
    w = _WEIGHTS[kind](rng, n)
    s = WeightedSampler(w)
    edges = (0.0, np.nextafter(1.0, 0.0))
    for u in (edges + (rng.uniform(),) if shape == () else (rng.uniform(size=shape),)):
        if np.ndim(u):
            u.flat[:2] = edges
        got, want = s.lookup(u), _binary_search(s, w, u)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def test_lookup_reaches_binary_search_fallback():
    # heavy-tailed weights crowd many intervals into one slice of the guide,
    # beyond its two steps: only those draws take the binary search
    rng = np.random.default_rng(5)
    w = _WEIGHTS["heavy-tailed"](rng, 300)
    s = WeightedSampler(w)
    s._bounds = s._bounds.view(_CountingBounds)
    s._bounds.calls = []
    u = rng.uniform(size=(4, 1024))
    np.testing.assert_array_equal(s.lookup(u), _binary_search(s, w, u))
    assert len(s._bounds.calls) == 1 and 0 < s._bounds.calls[0] < u.size // 10
    # below the crossover a call is one binary search
    s._bounds.calls.clear()
    np.testing.assert_array_equal(s.lookup(u[0, :GUIDE_MIN - 1]),
                                  _binary_search(s, w, u[0, :GUIDE_MIN - 1]))
    assert s._bounds.calls == [GUIDE_MIN - 1]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permutation_n1():
    np.testing.assert_array_equal(Rng(0).permutation(1), [0])


def test_permutation_is_bijection():
    r = Rng(17)
    for n in (2, 5, 30):
        p = r.permutation(n)
        np.testing.assert_array_equal(np.sort(p), np.arange(n))


def test_permutation_multinomial_counts():
    # n=3 over 6e4 draws: each of the 6 orders lands within 3 sd of 1e4
    r = Rng(5)
    counts = {}
    for _ in range(60_000):
        key = tuple(int(v) for v in r.permutation(3))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    bound = 3.0 * np.sqrt(1e4 * (5.0 / 6.0))
    for c in counts.values():
        assert abs(c - 10_000) <= bound
