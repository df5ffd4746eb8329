"""Seeded randomness for solver trials.

A deterministic RNG wrapper, norm-weighted index sampling via inverse-CDF
binary search, and uniform permutations.  All randomness in the package
flows through ``Rng`` so that a 64-bit seed fixes every trajectory.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 constants (Steele, Lea, Flood 2014); used only to derive child
# seeds, the draw stream itself is PCG64
_SPLIT_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(z: int) -> int:
    z = (z + _SPLIT_GAMMA) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


class Rng:
    """Deterministic random stream backed by numpy's PCG64.

    The generator has published fixed constants, so identical seeds give
    identical draw sequences across platforms.  Instances are single-owner
    mutable state: never share one across concurrent trials; derive one
    child per trial with :meth:`child` instead.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

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
        """Independent stream for trial ``index``.

        The child seed is ``splitmix64(seed XOR index)``; distinct indices
        under one parent give distinct streams.
        """
        return Rng(_splitmix64(self.seed ^ (int(index) & MASK64)))

    def __repr__(self):
        return f"Rng(seed={self.seed})"


class WeightedSampler:
    """Index sampler with Pr(i) = weights[i] / total.

    Inverse-CDF over cumulative weights with binary search; zero-weight
    indices occupy empty probability intervals and are never returned.
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
        self.cumulative_weights = np.cumsum(w)
        self.total = float(self.cumulative_weights[-1])
        # u * total rounds up to total when the total is subnormal; searching
        # only the bounds below the last positive weight clamps such a draw
        # to that index and leaves every other draw as it was
        self._bounds = self.cumulative_weights[:np.flatnonzero(w > 0.0)[-1]]

    def sample(self, rng: Rng) -> int:
        return int(self.lookup(rng.uniform()))

    def sample_many(self, rng: Rng, size: int) -> np.ndarray:
        """``size`` i.i.d. draws; consumes the stream exactly like ``size``
        successive :meth:`sample` calls."""
        return self.lookup(rng.uniform(size))

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The indices that the uniform draws ``u`` select, as
        :meth:`sample_many` maps its own draws."""
        return np.searchsorted(self._bounds, u * self.total, side="right")

    def __len__(self):
        return self.weights.size

