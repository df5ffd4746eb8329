"""The benchmark's workloads: which figure presets one pass runs, how the
preset seed is made from the benchmark seed, and what each trial must do.

One pass of a workload calls ``harness.preset`` and then
``harness.run_experiment`` for each of its presets, the same public calls
``rdr-lab preset`` makes, and writes the CSV and meta files.
"""

from __future__ import annotations

import zlib

import numpy as np

# why each workload is here is written up in README.md
WORKLOADS = {
    "param-sweep": ("fig-param-sweep",),
    "r-sweep": ("fig-r-sweep",),
    "direction": ("fig-direction",),
    "baselines": ("fig-baselines", "fig-vs-cyclic", "fig-failure"),
}


def preset_seed(workload: str, seed: int, index: int = 0) -> int:
    """64-bit preset seed of pass ``index``, derived from the benchmark seed
    and the workload name; the program sees only this number.

    Each pass of a run gets its own problems, so a run's medians average
    over instances: on ``baselines`` the work of one instance varies by
    about a quarter from seed to seed.
    """
    seq = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode()), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def expectation(preset_name: str, config) -> str | None:
    """What every trial of ``config`` in ``preset_name`` must end in.

    ``"converge"``: status ``converged``.  ``"stall"``: not converged, and
    the iterate never left the start point.  ``None``: any status, as long
    as the status itself checks out.
    """
    if preset_name in ("fig-param-sweep", "fig-r-sweep"):
        # Theorem 1 certifies every beta = 0 config; momentum cells may
        # diverge, but only outside the momentum certificate
        return "converge" if config.beta == 0.0 else None
    if preset_name == "fig-failure" and config.method == "det-rsets-dr":
        # the three-lines start point is a fixed point of the composed
        # reflections, so the deterministic all-rows variant cannot move
        return "stall"
    if preset_name in ("fig-baselines", "fig-vs-cyclic", "fig-failure"):
        return "converge"
    return None
