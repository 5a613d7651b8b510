"""Exception types shared across the toolkit."""

from __future__ import annotations


class StabkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(StabkitError, ValueError):
    """Operands have incompatible or invalid shapes."""


class NonFiniteError(StabkitError, ValueError):
    """A value contains NaN or infinity where finite numbers are required."""


class AsymmetricMatrixError(StabkitError, ValueError):
    """A matrix violates the symmetry contract beyond tolerance."""


class SingularMatrixError(StabkitError, ValueError):
    """A matrix is singular to working precision."""


class ParameterError(StabkitError, ValueError):
    """A scalar or structural parameter violates its precondition."""


class RankDeficiencyError(StabkitError, ValueError):
    """A least-squares design matrix is rank deficient."""


class DatasetFormatError(StabkitError, ValueError):
    """A demonstration CSV is malformed.

    ``line`` carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ConfigError(StabkitError, ValueError):
    """One or more run-configuration preconditions are violated.

    ``violations`` lists every detected problem so callers can report them
    all at once.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
