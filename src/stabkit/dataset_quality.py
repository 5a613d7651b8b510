"""Demonstration-log ingestion and the variance-based dataset-quality metric.

A demonstration set is fit with a linear feedback gain by least squares; the
residual covariance around that gain stands in for the demonstration spread,
and the stability analyzer turns the pair into a quality verdict: the larger
the admissible variance margin, the more forgiving the plant is of sloppy
demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .diffusion_controller import DiffusionParams, RngStream
from .errors import (
    DatasetFormatError,
    DimensionError,
    ParameterError,
    RankDeficiencyError,
)
from .plant import ExpertPolicy, PlantModel
from .stability_analyzer import StabilityVerdict, analytic_verdict

DEFAULT_COV_FLOOR = 1e-12


@dataclass(frozen=True)
class DemonstrationSet:
    """Paired error states (n x N) and expert actions (n x M)."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states = matrixkit.as_matrix(self.states, "demonstration states")
        actions = matrixkit.as_matrix(self.actions, "demonstration actions")
        if states.shape[0] != actions.shape[0]:
            raise DimensionError(
                f"states and actions disagree on record count: "
                f"{states.shape[0]} vs {actions.shape[0]}"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)

    @property
    def n_records(self) -> int:
        return self.states.shape[0]

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    @property
    def n_actions(self) -> int:
        return self.actions.shape[1]


@dataclass(frozen=True)
class QualityReport:
    """Estimated gain and covariance plus the analytic verdict they imply.

    ``sigma_threshold`` is the admissible demonstration standard deviation
    for scalar or isotropic readings, or None when the plant response puts
    no bound on it.
    """

    k_hat: np.ndarray
    sigma_hat: np.ndarray
    verdict: StabilityVerdict
    sigma_threshold: float | None


def _parse_header(fields: list[str]) -> tuple[int, int]:
    n = 0
    while n < len(fields) and fields[n] == f"e_{n + 1}":
        n += 1
    m = 0
    while n + m < len(fields) and fields[n + m] == f"u_{m + 1}":
        m += 1
    if n < 1 or m < 1 or n + m != len(fields):
        raise DatasetFormatError(
            "line 1: malformed header; expected e_1..e_N,u_1..u_M, got "
            + ",".join(fields),
            line=1,
        )
    return n, m


# ASCII separators that np.loadtxt strips as whitespace but float() rejects.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _parse_records(numbered: list[tuple[int, str]], width: int) -> np.ndarray:
    """Parse numbered body lines one field at a time with ``float``.

    Returns the (records x width) values, or raises DatasetFormatError naming
    the first offending line."""
    rows = []
    for offset, line in numbered:
        fields = line.split(",")
        if len(fields) != width:
            raise DatasetFormatError(
                f"line {offset}: expected {width} fields, got {len(fields)}",
                line=offset,
            )
        row = []
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                raise DatasetFormatError(
                    f"line {offset}: non-numeric field {field.strip()!r}",
                    line=offset,
                ) from None
            if not np.isfinite(value):
                raise DatasetFormatError(
                    f"line {offset}: non-finite field {field.strip()!r}",
                    line=offset,
                )
            row.append(value)
        rows.append(row)
    return np.array(rows)


def load_demonstrations(source) -> DemonstrationSet:
    """Parse demonstration CSV (header ``e_1..e_N,u_1..u_M``) from a text
    stream or string. Raises DatasetFormatError naming the offending line
    for ragged rows, non-numeric fields, or a header-only file, and naming
    the stream for one that is not UTF-8 text.

    The text is read in one piece and split at newlines only (a text
    file's read has already translated its line endings); trailing carriage
    returns and blank lines are dropped. The body is parsed in one
    ``np.loadtxt`` call. Any log it rejects or reads differently (wrong
    shape, non-finite values, separators only it takes as whitespace) goes
    through :func:`_parse_records`, which gives the error and line number,
    or the values for spellings only ``float`` reads
    (``1_0``, non-ASCII digits)."""
    try:
        text = source if isinstance(source, str) else source.read()
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "demonstration log")
        raise DatasetFormatError(f"{name} is not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    body = list(filter(str.strip, lines))  # the non-blank lines
    if not body:
        raise DatasetFormatError("line 1: missing header", line=1)
    n, m = _parse_header([field.strip() for field in body[0].split(",")])
    del body[0]
    if not body:
        raise DatasetFormatError("empty dataset: header but no records", line=1)
    try:
        values = np.loadtxt(body, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        values = None
    if (
        values is None
        or values.shape != (len(body), n + m)
        or not np.all(np.isfinite(values))
        or any(char in text for char in _LOADTXT_ONLY_SPACES)
    ):
        numbered = [(number, line) for number, line in enumerate(lines, start=1) if line.strip()]
        values = _parse_records(numbered[1:], n + m)
    return DemonstrationSet(
        states=np.ascontiguousarray(values[:, :n]),
        actions=np.ascontiguousarray(values[:, n:]),
    )


def estimate_gain(demos: DemonstrationSet) -> np.ndarray:
    """Least-squares feedback gain minimizing sum |u_i + K e_i|^2, solved by
    ``lstsq`` on the states themselves.

    Raises RankDeficiencyError when a singular value of the states is at most
    sqrt(``PIVOT_RTOL``) times the largest, i.e. when lam_min(E^T E) is at
    most ``PIVOT_RTOL`` lam_max(E^T E).
    """
    n, m = demos.n_states, demos.n_actions
    needed = n * m + 2
    if demos.n_records < needed:
        raise ParameterError(
            f"gain estimation needs at least {needed} records for "
            f"N={n}, M={m}; got {demos.n_records}"
        )
    solution, _, rank, _ = np.linalg.lstsq(
        demos.states, demos.actions, rcond=math.sqrt(matrixkit.PIVOT_RTOL)
    )
    if rank < n:
        raise RankDeficiencyError(
            "state sample covariance is rank deficient; demonstrations do not "
            "excite every state direction"
        )
    return -solution.T


def estimate_covariance(demos: DemonstrationSet, k_hat) -> np.ndarray:
    """Sample covariance (1/(n-1) normalization) of the feedback residuals
    r_i = u_i + K_hat e_i, regularized by ``DEFAULT_COV_FLOOR`` times the
    identity so deterministic datasets still yield a positive definite
    result."""
    if demos.n_records < 2:
        raise ParameterError("covariance estimation needs at least 2 records")
    k_hat = matrixkit.as_matrix(k_hat, "k_hat")
    if k_hat.shape != (demos.n_actions, demos.n_states):
        raise DimensionError(
            f"k_hat must be {demos.n_actions}x{demos.n_states}, got {k_hat.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = demos.actions + demos.states @ k_hat.T
        centered = residuals - residuals.mean(axis=0)
        cov = (centered.T @ centered) / (demos.n_records - 1)
    matrixkit._finite(cov, "the residual covariance of the demonstrations")
    return matrixkit._symmetric(cov) + DEFAULT_COV_FLOOR * np.eye(demos.n_actions)


def quality_report(
    plant: PlantModel, demos: DemonstrationSet, g: float, alpha: float
) -> QualityReport:
    """Chain gain and covariance estimation into the verdict ``analyze``
    gives for the policy (K_hat, Sigma_hat) under (g, alpha), from
    :func:`analytic_verdict`. The reported threshold is the admissible
    sigma for the scalar (or isotropic) reading, or None when the symmetric
    plant response has no positive eigenvalue.
    """
    if plant.n_states != demos.n_states or plant.n_inputs != demos.n_actions:
        raise DimensionError(
            f"plant is {plant.n_states} states x {plant.n_inputs} inputs but "
            f"demonstrations carry N={demos.n_states}, M={demos.n_actions}"
        )
    k_hat = estimate_gain(demos)
    sigma_hat = estimate_covariance(demos, k_hat)
    policy = ExpertPolicy(K=k_hat, Sigma=sigma_hat)
    verdict = analytic_verdict(plant, policy, DiffusionParams(g=g, alpha=alpha))
    lam_max = float(np.linalg.eigvalsh(matrixkit._symmetric(plant.A))[-1])
    threshold = g * float(np.sqrt(alpha / lam_max)) if lam_max > 0.0 else None
    return QualityReport(
        k_hat=k_hat,
        sigma_hat=sigma_hat,
        verdict=verdict,
        sigma_threshold=threshold,
    )


def generate_demonstrations(K, Sigma, n_records: int, rng: RngStream) -> DemonstrationSet:
    """Synthetic demonstrations u = -K e + eta with eta ~ N(0, Sigma) and
    e ~ N(0, I); ``ExpertPolicy`` checks K and Sigma. Ground-truth fixture
    for the estimators."""
    if n_records < 1:
        raise ParameterError(f"n_records must be >= 1, got {n_records}")
    policy = ExpertPolicy(K=K, Sigma=Sigma)
    lower = np.linalg.cholesky(policy.Sigma)
    states = rng.standard_normal((n_records, policy.n_states))
    noise = rng.standard_normal((n_records, policy.n_actions)) @ lower.T
    actions = -(states @ policy.K.T) + noise
    return DemonstrationSet(states=states, actions=actions)
