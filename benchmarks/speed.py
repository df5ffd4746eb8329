"""A fixed reference loop that measures how fast the host runs right now.

The loop is the benchmark's own code, not the program's: 400 Kaczmarz row
projections on a fixed 200x50 system, a Python loop over small numpy calls
like the solvers' inner loops.  The host this benchmark was written on runs
the same code up to twice as slowly in spells from seconds to minutes, and
the loop slows with it.  ``run.py`` scales each trial's time by the loop's time
measured next to it, so the timings read at one fixed host speed.
"""

from __future__ import annotations

import time

import numpy as np

# seconds one reference loop takes at the speed the timings are scaled to:
# its median between trials on the host the figures in README.md come from,
# where it took 0.85-0.95 ms in fast spells and 1.6-1.9 ms in slow ones
NOMINAL_S = 1.7e-3
PROJECTIONS = 400

_rng = np.random.default_rng(20220708)
_A = _rng.standard_normal((200, 50))
_b = _A @ _rng.standard_normal(50)
_rows = [int(j) for j in _rng.integers(0, 200, PROJECTIONS)]
_rn = (_A * _A).sum(axis=1)


def _loop() -> np.ndarray:
    x = np.zeros(50)
    A, b, rn = _A, _b, _rn
    for j in _rows:
        a = A[j]
        x -= ((a @ x - b[j]) / rn[j]) * a
    return x


def reference_s() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


_loop()  # first-call costs stay out of every measured loop
