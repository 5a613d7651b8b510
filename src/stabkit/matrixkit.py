"""Dense linear algebra for small matrices (intended for N <= ~16).

LAPACK, through ``numpy.linalg``, computes symmetric eigenvalues and the
Cholesky factor; this module keeps the contracts around them: the relative
symmetry tolerance and the relative positive-definite pivot rule.
Inversion stays hand-written Gauss-Jordan with partial pivoting, because
numpy exposes no LU pivots and callers rely on its ``PIVOT_RTOL`` singularity
threshold (a rank-deficient demonstration log must be refused, not fitted).
2x2 eigenvalues use a cancellation-safe quadratic formula. All operations
are pure functions on immutable values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionError,
    NonFiniteError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

# Relative tolerance for the symmetry contract of eig_sym / is_positive_definite.
SYMMETRY_RTOL = 1e-12
# Pivot thresholds: relative to the largest entry (invert) or largest
# diagonal magnitude (positive-definiteness).
PIVOT_RTOL = 1e-12
PD_RTOL = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a finite float64 2-D array.

    Scalars become 1x1 matrices. Raises DimensionError for other ranks and
    NonFiniteError when any entry is NaN or infinite.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a finite float64 1-D array (scalars become length 1)."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def symmetric_part(m) -> np.ndarray:
    """Return (M + M^T)/2 for a square matrix.

    IEEE addition is commutative, so the result is exactly symmetric
    entry-for-entry; symmetric inputs are returned unchanged in value and
    the operation is exactly idempotent.
    """
    m = require_square(m)
    return 0.5 * (m + m.T)


def check_symmetric(s, name: str = "matrix", rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Enforce the symmetry contract: symmetrize silently below ``rtol``
    (relative to the largest entry magnitude), raise above it."""
    s = require_square(s, name)
    scale = float(np.max(np.abs(s))) if s.size else 0.0
    skew = float(np.max(np.abs(s - s.T)))
    if skew > rtol * scale:
        raise AsymmetricMatrixError(
            f"{name} is asymmetric beyond tolerance: max|S - S^T| = {skew:.3e}, "
            f"allowed {rtol * scale:.3e}"
        )
    return symmetric_part(s)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (LAPACK ``syevd``).

    Returns (eigenvalues ascending, eigenvector columns in matching order).
    """
    return np.linalg.eigh(a)


def eig_sym(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    The input must be symmetric within the relative tolerance
    ``SYMMETRY_RTOL``; smaller asymmetries are silently symmetrized.
    """
    return np.linalg.eigvalsh(check_symmetric(s, "eig_sym input"))


def _cholesky_pivots(s: np.ndarray, pd_tol: float) -> np.ndarray | None:
    """Lower Cholesky factor of ``s``, or None if any pivot is <= ``pd_tol``.

    The pivots are the squared diagonal of the factor; LAPACK stops at the
    first non-positive one, and the rest are checked against ``pd_tol``.
    """
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.diag(lower) ** 2 > pd_tol):
        return None
    return lower


def is_positive_definite(s, pd_tolerance: float | None = None) -> bool:
    """True iff a Cholesky factorization of the (symmetrized) input succeeds
    with every pivot above ``pd_tolerance``.

    The default tolerance is ``PD_RTOL`` times the largest diagonal magnitude,
    so exact zero matrices and semidefinite matrices are rejected.
    """
    s = check_symmetric(s, "is_positive_definite input")
    if pd_tolerance is None:
        pd_tolerance = PD_RTOL * float(np.max(np.abs(np.diag(s))))
    return _cholesky_pivots(s, pd_tolerance) is not None


def cholesky(s) -> np.ndarray:
    """Lower Cholesky factor L with S = L L^T; raises when S is not positive
    definite under the same pivot rule as :func:`is_positive_definite`."""
    s = check_symmetric(s, "cholesky input")
    pd_tol = PD_RTOL * float(np.max(np.abs(np.diag(s))))
    lower = _cholesky_pivots(s, pd_tol)
    if lower is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return lower


def invert(m) -> np.ndarray:
    """Matrix inverse by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    ``PIVOT_RTOL`` times the largest entry magnitude of the input.
    """
    m = require_square(m, "invert input")
    n = m.shape[0]
    scale = float(np.max(np.abs(m)))
    threshold = PIVOT_RTOL * scale
    aug = np.hstack([m.astype(float, copy=True), np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) <= threshold:
            raise SingularMatrixError(
                f"matrix is singular to working precision (pivot {pivot:.3e} "
                f"at column {col})"
            )
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def eig_2x2(m) -> tuple[complex, complex]:
    """Both eigenvalues of a 2x2 matrix as complex numbers.

    Roots of lambda^2 - tr(M) lambda + det(M), computed with the
    cancellation-safe quadratic formula. Returned with real parts in
    descending order (positive imaginary part first on ties).
    """
    m = as_matrix(m, "eig_2x2 input")
    if m.shape != (2, 2):
        raise DimensionError(f"eig_2x2 requires a 2x2 matrix, got shape {m.shape}")
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        sq = math.sqrt(disc)
        if tr >= 0.0:
            r1 = 0.5 * (tr + sq)
        else:
            r1 = 0.5 * (tr - sq)
        r2 = det / r1 if r1 != 0.0 else 0.0
        hi, lo = (r1, r2) if r1 >= r2 else (r2, r1)
        return complex(hi), complex(lo)
    im = 0.5 * math.sqrt(-disc)
    re = 0.5 * tr
    return complex(re, im), complex(re, -im)
