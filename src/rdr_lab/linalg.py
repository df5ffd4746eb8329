"""Dense linear-algebra kernels for row-action solvers.

Hyperplane projections and reflections, the spectral oracle (LAPACK's SVD
through numpy, computed once per :class:`Matrix`), and pseudoinverse-based
reference solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Numerical rank cutoff: sigma > sigma_max * max(m, n) * eps * RANK_RTOL_SCALE.
RANK_RTOL_SCALE = 16.0

_EPS = float(np.finfo(np.float64).eps)


class Matrix:
    """Dense row-major matrix with cached squared row and column norms.

    Entries are frozen after construction so cached norms and the SVD that
    :func:`svd_small` stores on the instance stay valid, and the instance can
    be shared across concurrent trials.  Rows with zero norm are recorded in
    ``zero_rows``; norm-weighted samplers give them zero weight and can never
    return them.
    """

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("invalid matrix: expected a nonempty 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("invalid matrix: non-finite entries")
        arr.flags.writeable = False
        self.entries = arr
        self.m, self.n = arr.shape
        self.row_norms_sq = np.einsum("ij,ij->i", arr, arr)
        self.row_norms_sq.flags.writeable = False
        self.frob_sq = float(self.row_norms_sq.sum())
        self.zero_rows = [int(i) for i in np.flatnonzero(self.row_norms_sq == 0.0)]
        self._svd = None

    @cached_property
    def col_norms_sq(self):
        c = np.einsum("ij,ij->j", self.entries, self.entries)
        c.flags.writeable = False
        return c

    @cached_property
    def columns(self):  # Aᵀ, contiguous and read-only
        c = np.ascontiguousarray(self.entries.T)
        c.flags.writeable = False
        return c

    @property
    def shape(self):
        return (self.m, self.n)

    def __repr__(self):
        return f"Matrix({self.m}x{self.n}, frob_sq={self.frob_sq:.6g})"


@dataclass(frozen=True)
class SvdResult:
    """SVD factors with ``A == U @ diag(sigma) @ V[:, :k].T``, k = min(m, n).

    U (m x k) has orthonormal columns, V (n x n) is orthogonal, and sigma
    (length k) is descending.  Wide matrices need all n columns of V: the
    last n - m lie in the null space.  The arrays are read-only.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    rank: int


@dataclass(frozen=True)
class SpectralScalars:
    """The spectral quantities the rate formulas consume."""

    sigma_min: float  # smallest nonzero singular value
    sigma_max: float
    frob_sq: float
    rank: int


def as_matrix(A) -> Matrix:
    """``A`` itself if it is a :class:`Matrix`, else ``Matrix(A)``."""
    return A if isinstance(A, Matrix) else Matrix(A)


def reflect_row(x, a, b, norm_sq=None):
    """Reflect ``x`` through the hyperplane ``<a, y> = b``.

    ``x - 2 (<a, x> - b) / <a, a> * a``: an involution and an isometry of
    distances to any point on the hyperplane.  ``norm_sq`` may carry a
    precomputed ``<a, a>``; the formula is identical either way.
    """
    nrm = float(a @ a) if norm_sq is None else float(norm_sq)
    if nrm <= 0.0:
        raise ValueError("degenerate hyperplane")
    return x - (2.0 * (a @ x - b) / nrm) * a


def rank_threshold(sigma_max, m, n):
    """Singular values at or below this are treated as numerically zero."""
    return sigma_max * max(m, n) * _EPS * RANK_RTOL_SCALE


def svd_small(A) -> SvdResult:
    """SVD of a dense matrix through LAPACK, stored on a :class:`Matrix`.

    Parameters
    ----------
    A : Matrix or array_like
        Dense real matrix.  A :class:`Matrix` keeps its result, so every
        later call on the same instance returns the same object.

    Returns
    -------
    SvdResult
        Thin U, full V and descending singular values; ``rank`` counts the
        singular values above ``rank_threshold``.
    """
    mat = as_matrix(A)
    if mat._svd is None:
        u, sig, vt = np.linalg.svd(mat.entries, full_matrices=mat.m < mat.n)
        for f in (u, sig, vt):
            f.flags.writeable = False
        rank = int(np.sum(sig > rank_threshold(float(sig[0]), mat.m, mat.n)))
        mat._svd = SvdResult(U=u, singular_values=sig, V=vt.T, rank=rank)
    return mat._svd


def spectral_scalars(A) -> SpectralScalars:
    """Extract (sigma_min, sigma_max, frob_sq, rank) via ``svd_small``."""
    mat = as_matrix(A)
    res = svd_small(mat)
    if res.rank == 0:
        raise ValueError("zero matrix")
    return SpectralScalars(
        sigma_min=float(res.singular_values[res.rank - 1]),
        sigma_max=float(res.singular_values[0]),
        frob_sq=mat.frob_sq,
        rank=res.rank,
    )


def projected_solution(A, b, x0) -> np.ndarray:
    """Projection of ``x0`` onto the solution set of a consistent system.

    Computes ``pinv(A) @ b + (I - pinv(A) @ A) @ x0``, the point the
    row-action solvers converge to from ``x0`` and the ``x0_star`` the
    planted sources give :class:`~rdr_lab.problems.Problem`.  Raises if the
    least-squares residual shows the system is inconsistent.  On a zero
    matrix this is ``x0`` itself when ``b = 0`` and ``inconsistent system``
    otherwise.
    """
    mat = as_matrix(A)
    b = np.asarray(b, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if b.shape != (mat.m,) or x0.shape != (mat.n,):
        raise ValueError("invalid matrix: shape mismatch")
    if not np.isfinite(x0).all():
        raise ValueError("invalid start point: x0 is not finite")
    res = svd_small(mat)
    r = res.rank
    vr = res.V[:, :r]
    coeffs = (res.U[:, :r].T @ b) / res.singular_values[:r]
    x_ls = vr @ coeffs
    bnorm = float(np.sqrt(b @ b))
    resid = mat.entries @ x_ls - b
    if not float(np.sqrt(resid @ resid)) <= 1e-8 * bnorm:  # nan fails too
        raise ValueError("inconsistent system")
    return x_ls + x0 - vr @ (vr.T @ x0)
