"""Dense linear algebra for small matrices (intended for N <= ~16).

LAPACK, through ``numpy.linalg``, computes the Cholesky factor and
singular values; this module keeps the contracts around them: the relative
symmetry tolerance, the relative positive-definite pivot rule, and the
singularity rule that a plant's B and a policy's Sigma must pass before
their inverses are taken, which refuses a matrix whose smallest singular
value is at most ``PIVOT_RTOL`` times its largest entry magnitude. All
operations are pure functions on immutable values.

The coercions :func:`as_real`, :func:`as_whole`, :func:`as_matrix` and
:func:`as_vector` hold the type rules of every numeric field in the package.

Validation rule: public functions and dataclass constructors validate their
inputs, with the error messages of their contract; ``_`` kernels trust
theirs. Each value is checked once, where it enters. The kernels here take
finite square float arrays.
"""

from __future__ import annotations

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

# Relative tolerance for the symmetry contract of check_symmetric.
SYMMETRY_RTOL = 1e-12
# Singularity and pivot thresholds: relative to the largest entry
# (singularity) or largest diagonal magnitude (positive-definiteness).
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


def _first_bool(values):
    """The first bool in a (regular, nested) list or tuple, or None: numpy
    would upcast it to a number when it shares the list with numbers."""
    entries = np.asarray(values, dtype=object)
    if {bool, np.bool_}.isdisjoint(map(type, entries.flat)):
        return None
    return next(v for v in entries.flat if isinstance(v, (bool, np.bool_)))


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; ParameterError unless its entries are
    integers or reals (bools, strings and objects are refused) in a
    rectangular shape. Only lists and tuples are walked for bools; an
    array's dtype speaks for it."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise ParameterError(f"{name} must be a rectangular array of numbers") from None
    if a.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold numbers, got dtype {a.dtype}")
    if isinstance(values, (list, tuple)) and (flag := _first_bool(values)) is not None:
        raise ParameterError(f"{name} must hold numbers, got {bool(flag)!r}")
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
    return _finite(a, name)


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a finite float64 1-D array (scalars become length 1)."""
    v = _float_array(values, name)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    return _finite(v, name)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a``; NonFiniteError when any entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def _check_positive(**values: float):
    """ParameterError naming the first of ``values`` that is not > 0."""
    for name, value in values.items():
        if not (value > 0.0):
            raise ParameterError(f"{name} must be > 0, got {value}")


def _check_length(v: np.ndarray, name: str, owner: str, length: int):
    """DimensionError unless vector ``v`` has the length ``owner`` expects."""
    if v.shape[0] != length:
        raise DimensionError(f"{name} has length {v.shape[0]}, {owner} expects {length}")


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    return _check_square(as_matrix(m, name), name)


def _check_square(m: np.ndarray, name: str) -> np.ndarray:
    """``m``; DimensionError unless it is square."""
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def symmetric_part(m) -> np.ndarray:
    """Return (M + M^T)/2 for a square matrix.

    IEEE addition is commutative, so the result is exactly symmetric
    entry-for-entry; symmetric inputs are returned unchanged in value and
    the operation is exactly idempotent.
    """
    return _symmetric(require_square(m))


@np.errstate(over="ignore")
def _symmetric(s: np.ndarray) -> np.ndarray:
    """``0.5 * (S + S^T)`` of a square matrix, or of each in a stack, bit for
    bit wherever the sum is finite. Where it overflows, the halves are added
    instead, so a finite input has a finite symmetric part."""
    flipped = s.swapaxes(-1, -2)
    total = s + flipped
    if np.isfinite(total).all():
        return 0.5 * total
    return np.where(np.isinf(total), 0.5 * s + 0.5 * flipped, 0.5 * total)


def check_symmetric(s, name: str = "matrix") -> np.ndarray:
    """Enforce the symmetry contract: symmetrize silently below
    ``SYMMETRY_RTOL`` (relative to the largest entry magnitude), raise above
    it."""
    s = require_square(s, name)
    allowed = SYMMETRY_RTOL * float(np.abs(s).max())
    skew = float(np.abs(s - s.T).max())
    if skew > allowed:
        raise AsymmetricMatrixError(
            f"{name} is asymmetric beyond tolerance: max|S - S^T| = {skew:.3e}, "
            f"allowed {allowed:.3e}"
        )
    return _symmetric(s)


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
    if not (lower.diagonal() ** 2 > PD_RTOL * float(np.abs(s.diagonal()).max())).all():
        return None
    return lower


def _require_positive_definite(s: np.ndarray, name: str) -> np.ndarray:
    """Symmetric ``s``; ParameterError unless it passes the pivot rule."""
    if _cholesky_pivots(s) is None:
        raise ParameterError(f"{name} must be positive definite")
    return s


def cholesky(s) -> np.ndarray:
    """Lower Cholesky factor L with S = L L^T; raises when S is not positive
    definite: when a pivot is at most ``PD_RTOL`` times the largest diagonal
    magnitude, so exact zero and semidefinite matrices are refused."""
    lower = _cholesky_pivots(check_symmetric(s, "cholesky input"))
    if lower is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return lower


def _nonsingular(m: np.ndarray) -> np.ndarray:
    """Square ``m``; SingularMatrixError when its smallest singular value is
    at most ``PIVOT_RTOL`` times its largest entry magnitude."""
    smallest = float(np.linalg.svd(m, compute_uv=False)[-1])
    threshold = PIVOT_RTOL * float(np.abs(m).max())
    if smallest <= threshold:
        raise SingularMatrixError(
            f"matrix is singular to working precision (smallest singular value "
            f"{smallest:.3e}, allowed {threshold:.3e})"
        )
    return m

