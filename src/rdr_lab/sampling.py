"""Seeded randomness for solver trials.

A deterministic RNG wrapper, norm-weighted index sampling by inverse CDF
through a guide table whose every result is checked, and uniform
permutations.  All randomness in the package flows through ``Rng`` so that a
64-bit seed fixes every trajectory.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
# draws per WeightedSampler.lookup call from which the guide table is used:
# with 50 to 200 weights a binary search costs about 0.08 us a draw, the
# guide about 10 us a call plus 0.015 us a draw, and they break even at 128
# to 224 draws
GUIDE_MIN = 192

# splitmix64 constants (Steele, Lea, Flood 2014); used only to derive child
# seeds, the draw stream itself is PCG64
_SPLIT_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _whole(value, message, lo=1, hi=math.inf, error=ValueError) -> int:
    """``value`` as an int if it is a whole number in [lo, hi] (20.0 is 20),
    else raises ``error(message)``; every count and seed is checked here."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(message) from None
    if whole != value or not lo <= whole <= hi:
        raise error(message)
    return whole


def _splitmix64(z: int) -> int:
    z = (z + _SPLIT_GAMMA) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def child_seed(seed: int, index: int) -> int:
    """The seed of child stream ``index`` of ``seed``: splitmix64(seed ^ index)."""
    return _splitmix64(int(seed) ^ (int(index) & MASK64))


class Rng:
    """Deterministic random stream backed by numpy's PCG64.

    The generator has published fixed constants, so identical seeds give
    identical draw sequences across platforms.  Instances are single-owner
    mutable state: never share one across concurrent trials; derive one
    child per trial with :meth:`child` instead.
    """

    def __init__(self, seed: int):
        self.seed = _whole(seed, "seed must be a 64-bit unsigned integer", lo=0, hi=MASK64)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Draw from U[0, 1); a scalar when ``size`` is None."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Draw standard normals (ziggurat method)."""
        return self._gen.standard_normal(size)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        return int(self._gen.integers(bound))

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of 0..n-1 (Fisher-Yates shuffle)."""
        return self._gen.permutation(n)

    def child(self, index: int) -> "Rng":
        """Independent stream for trial ``index``, seeded by :func:`child_seed`."""
        return Rng(child_seed(self.seed, index))

    def __repr__(self):
        return f"Rng(seed={self.seed})"


class WeightedSampler:
    """Index sampler with Pr(i) = weights[i] / total.

    Inverse-CDF over cumulative weights: a draw ``v = u * total`` selects
    the index whose interval ``[lo, hi)`` of cumulative weight holds it, and
    zero-weight indices occupy empty intervals and are never returned.  A
    guide table (Chen & Asau 1974; Devroye 1986, section III.2.4) splits
    ``[0, total)`` into about four slices per interval and maps each slice
    to an index no higher than any that its draws select; a lookup starts
    there, steps right at most twice and checks that ``v`` lies in the
    interval it reached.  The
    draws that fail the check, and every call of fewer than ``GUIDE_MIN``
    draws, take a binary search instead, so the result always equals
    ``np.searchsorted`` over the cumulative weights.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("invalid weights: expected a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("invalid weights: entries must be finite and >= 0")
        if not np.any(w > 0.0):
            raise ValueError("invalid weights: all zero")
        self.weights = w
        with np.errstate(over="ignore"):  # reported below
            self.cumulative_weights = np.cumsum(w)
        self.total = float(self.cumulative_weights[-1])
        if self.total == np.inf:
            raise ValueError("invalid weights: the total overflows")
        # u * total rounds up to total when the total is subnormal; searching
        # only the bounds below the last positive weight clamps such a draw
        # to that index and leaves every other draw as it was
        self._bounds = bounds = self.cumulative_weights[:np.flatnonzero(w > 0.0)[-1]]
        # index i selects v in [lo[i], hi[i])
        self._lo = np.concatenate(([-np.inf], bounds))
        self._hi = np.concatenate((bounds, [np.inf]))
        # v falls in slice int(v * scale); the guide entry of slice s counts
        # the bounds in slices before s, which no v in slice s can be below
        # (a subnormal total overflows the scale: one slice, and the check)
        slices = 4 * bounds.size + 1
        scale = slices / self.total
        self._scale = scale if scale < np.inf else 0.0
        self._guide = np.searchsorted((bounds * self._scale).astype(np.intp),
                                      np.arange(slices + 1))

    def sample(self, rng: Rng) -> int:
        return int(self.lookup(rng.uniform()))

    def sample_many(self, rng: Rng, size: int) -> np.ndarray:
        """``size`` i.i.d. draws; consumes the stream exactly like ``size``
        successive :meth:`sample` calls."""
        return self.lookup(rng.uniform(size))

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The indices that the uniform draws ``u``, in [0, 1), select, as
        :meth:`sample_many` maps its own draws."""
        v = u * self.total
        if getattr(v, "size", 1) < GUIDE_MIN:  # a float has no size
            return self._bounds.searchsorted(v, side="right")
        v = v.ravel()
        i, hi = self._guide[(v * self._scale).astype(np.intp)], self._hi
        i += hi[i] <= v
        i += hi[i] <= v
        miss = np.flatnonzero((v < self._lo[i]) | (hi[i] <= v))
        if miss.size:
            i[miss] = self._bounds.searchsorted(v[miss], side="right")
        return i.reshape(np.shape(u))

    def __len__(self):
        return self.weights.size

