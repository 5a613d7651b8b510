"""Dense linear algebra for small matrices (intended for N <= ~16).

LAPACK, through ``numpy.linalg``, computes symmetric eigenvalues, the
Cholesky factor, singular values and inverses; this module keeps the
contracts around them: the relative symmetry tolerance, the relative
positive-definite pivot rule, and the singularity rule of :func:`invert`,
which refuses a matrix whose smallest singular value is at most
``PIVOT_RTOL`` times its largest entry magnitude. 2x2 eigenvalues use a
cancellation-safe quadratic formula. All operations are pure functions on
immutable values.

The coercions :func:`as_real`, :func:`as_whole`, :func:`as_matrix` and
:func:`as_vector` hold the type rules of every numeric field in the package.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParameterError,
    SingularMatrixError,
)

# Relative tolerance for the symmetry contract of eig_sym / is_positive_definite.
SYMMETRY_RTOL = 1e-12
# Singularity and pivot thresholds: relative to the largest entry (invert)
# or largest diagonal magnitude (positive-definiteness).
PIVOT_RTOL = 1e-12
PD_RTOL = 1e-12


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_real(value, name: str) -> float:
    """``value`` as a float. Python and numpy reals are accepted; bools,
    strings, integers beyond the float range and anything else raise
    ParameterError."""
    if not _is_number(value):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} is an integer beyond the float range") from None


def as_whole(value, name: str) -> int:
    """``value`` as an int. Integers and whole-valued reals (``7.0``) are
    accepted; fractions, bools, strings and anything else raise
    ParameterError."""
    if _is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ParameterError(f"{name} must be a whole number, got {value!r}")


def _holds_bool(values) -> bool:
    """Whether a (regular, nested) list or tuple holds a bool, which numpy
    would upcast to a number when it shares the list with numbers."""
    return not {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat))


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; ParameterError unless its entries are
    integers or reals (bools, strings and objects are refused). Only lists
    and tuples are walked for bools; an array's dtype speaks for it."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf" or (isinstance(values, (list, tuple)) and _holds_bool(values)):
        raise ParameterError(f"{name} must hold numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a finite float64 2-D array.

    Scalars become 1x1 matrices. Raises ParameterError for entries that are
    not numbers, DimensionError for other ranks and NonFiniteError when any
    entry is NaN or infinite.
    """
    a = _float_array(values, name)
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
    v = _float_array(values, name)
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


def check_symmetric(s, name: str = "matrix") -> np.ndarray:
    """Enforce the symmetry contract: symmetrize silently below
    ``SYMMETRY_RTOL`` (relative to the largest entry magnitude), raise above
    it."""
    s = require_square(s, name)
    allowed = SYMMETRY_RTOL * float(np.max(np.abs(s)))
    skew = float(np.max(np.abs(s - s.T)))
    if skew > allowed:
        raise AsymmetricMatrixError(
            f"{name} is asymmetric beyond tolerance: max|S - S^T| = {skew:.3e}, "
            f"allowed {allowed:.3e}"
        )
    return 0.5 * (s + s.T)


def eig_sym(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    The input must be symmetric within the relative tolerance
    ``SYMMETRY_RTOL``; smaller asymmetries are silently symmetrized.
    """
    return np.linalg.eigvalsh(check_symmetric(s, "eig_sym input"))


def _cholesky_pivots(s: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of symmetric ``s``, or None if any pivot is at
    most ``PD_RTOL`` times the largest diagonal magnitude.

    The pivots are the squared diagonal of the factor; LAPACK stops at the
    first non-positive one, and the rest are checked against the rule.
    """
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.diag(lower) ** 2 > PD_RTOL * float(np.max(np.abs(np.diag(s))))):
        return None
    return lower


def is_positive_definite(s) -> bool:
    """True iff a Cholesky factorization of the (symmetrized) input succeeds
    with every pivot above ``PD_RTOL`` times the largest diagonal magnitude,
    so exact zero matrices and semidefinite matrices are rejected."""
    return _cholesky_pivots(check_symmetric(s, "is_positive_definite input")) is not None


def cholesky(s) -> np.ndarray:
    """Lower Cholesky factor L with S = L L^T; raises when S is not positive
    definite under the same pivot rule as :func:`is_positive_definite`."""
    lower = _cholesky_pivots(check_symmetric(s, "cholesky input"))
    if lower is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return lower


def invert(m) -> np.ndarray:
    """Matrix inverse (LAPACK ``gesv``).

    Raises SingularMatrixError when the smallest singular value is at most
    ``PIVOT_RTOL`` times the largest entry magnitude of the input.
    """
    m = require_square(m, "invert input")
    smallest = float(np.linalg.svd(m, compute_uv=False)[-1])
    threshold = PIVOT_RTOL * float(np.max(np.abs(m)))
    if smallest <= threshold:
        raise SingularMatrixError(
            f"matrix is singular to working precision (smallest singular value "
            f"{smallest:.3e}, allowed {threshold:.3e})"
        )
    return np.linalg.inv(m)


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
