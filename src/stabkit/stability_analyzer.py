"""Analytic stability verdicts for the coupled plant/denoising-controller
system, plus parameter-region sweeps.

The scalar path tests two conditions that are jointly necessary and
sufficient (they are the Routh test of the 2x2 augmented matrix):

* closed loop: A - B K < 0, and
* demonstration variance: sigma < g sqrt(alpha / A) whenever A > 0
  (equivalently K' = g^2 alpha / sigma^2 > A); vacuous for A <= 0.

The N-dimensional path tests the sufficient conditions built from symmetric
parts: with effective precision P = g^2 alpha Sigma^{-1}, stability is
claimed when lam_min(P) > lam_max(sym(A)) and sym(P (A - B K)) is negative
definite (the latter is a Lyapunov inequality for A - B K). Failure of
these only yields "inconclusive": they are not necessary, so instability is
never claimed on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import matrixkit
from .coupled_sim import (
    CouplingConfig,
    CouplingMode,
    classify_empirical,
    simulate_scalar_grid,
)
from .errors import DimensionError, NonFiniteError, ParameterError
from .plant import ExpertPolicy, PlantModel

# Margins within TIE_EPSILON (relative) of zero classify as "marginal": the
# underlying conditions are strict inequalities with no boundary behavior.
TIE_EPSILON = 1e-9

AXIS_NAMES = ("A", "B", "K", "sigma", "g", "alpha", "kprime")

_MAX_AXIS_STEPS = 10_000


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of an analytic test: label, per-condition slack margins,
    per-condition booleans, and human-readable notes."""

    label: str
    margins: dict[str, float]
    conditions: dict[str, bool]
    notes: tuple[str, ...] = ()

    @property
    def min_margin(self) -> float:
        return min(self.margins.values())


@dataclass(frozen=True)
class EffectiveGain:
    """Proportional gain equivalent of the denoising controller: the scalar
    g^2 alpha / sigma^2, or the matrix g^2 alpha Sigma^{-1}."""

    kprime: float | np.ndarray

    def __post_init__(self):
        if isinstance(self.kprime, np.ndarray):
            if not matrixkit.is_positive_definite(self.kprime):
                raise ParameterError("matrix effective gain must be positive definite")
        elif not (self.kprime > 0.0):
            raise ParameterError(f"effective gain must be > 0, got {self.kprime}")

    @classmethod
    def from_scalar(cls, g: float, alpha: float, sigma: float) -> "EffectiveGain":
        """g^2 alpha / sigma^2; refused unless it is finite and > 0."""
        g, alpha, sigma = float(g), float(alpha), float(sigma)
        _check_positive(sigma=sigma, g=g, alpha=alpha)
        sigma_sq = sigma * sigma
        kprime = g * g * alpha / sigma_sq if sigma_sq > 0.0 else math.inf
        if kprime == math.inf:
            raise ParameterError(
                f"effective gain g^2 alpha / sigma^2 overflows at sigma={sigma}, "
                f"g={g}, alpha={alpha}"
            )
        return cls(kprime)

    @classmethod
    def from_covariance(cls, g: float, alpha: float, Sigma) -> "EffectiveGain":
        g, alpha = float(g), float(alpha)
        _check_positive(g=g, alpha=alpha)
        sigma = matrixkit.check_symmetric(Sigma, "Sigma")
        if not matrixkit.is_positive_definite(sigma):
            raise ParameterError("Sigma must be positive definite")
        precision = g * g * alpha * matrixkit.invert(sigma)
        return cls(matrixkit.symmetric_part(precision))


def _check_positive(**values: float):
    for name, value in values.items():
        if not (value > 0.0):
            raise ParameterError(f"{name} must be > 0, got {value}")


def _resolve_labels(decisive, failure_label: str) -> np.ndarray:
    """Resolve stable / marginal / <failure_label> per cell from
    (margin, scale, applies) columns or scalars; a pair counts only where
    ``applies`` holds."""
    fails = ties = False
    for margin, scale, applies in decisive:
        fails = fails | (applies & (margin < -TIE_EPSILON * scale))
        ties = ties | (applies & (np.abs(margin) <= TIE_EPSILON * scale))
    return np.where(fails, failure_label, np.where(ties, "marginal", "stable"))


def augmented_matrix(A, B, K, lam) -> np.ndarray:
    """Joint-state dynamics matrix [[A, B], [-L K, -L]] of the coupled
    system, where L is ``lam`` times the identity (scalar) or the effective
    gain matrix itself."""
    a = matrixkit.require_square(A, "A")
    b = matrixkit.as_matrix(B, "B")
    k = matrixkit.as_matrix(K, "K")
    n = a.shape[0]
    m = b.shape[1]
    if b.shape[0] != n:
        raise DimensionError(f"B must have {n} rows, got {b.shape[0]}")
    if k.shape != (m, n):
        raise DimensionError(f"K must be {m}x{n}, got {k.shape}")
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.ndim == 0:
        lam_mat = float(lam_arr) * np.eye(m)
    else:
        lam_mat = matrixkit.require_square(lam_arr, "lam")
        if lam_mat.shape[0] != m:
            raise DimensionError(f"lam must be {m}x{m}, got {lam_mat.shape}")
    return np.block([[a, b], [-(lam_mat @ k), -lam_mat]])


def analytic_1d(
    A: float, B: float, K: float, sigma: float, g: float, alpha: float
) -> StabilityVerdict:
    """Scalar stability verdict.

    Margins report the closed-loop slack B K - A, the gain slack K' - A,
    and (when A > 0) the variance slack g sqrt(alpha / A) - sigma. The two
    gain-side margins express the same condition in different units; for
    A <= 0 that condition is vacuous and only the closed-loop margin decides
    the label.
    """
    sigma, g, alpha = float(sigma), float(g), float(alpha)
    _check_positive(sigma=sigma, g=g, alpha=alpha)
    a, b, k = float(A), float(B), float(K)
    for name, value in (("A", a), ("B", b), ("K", k)):
        if not math.isfinite(value):
            raise NonFiniteError(f"{name} must be finite, got {value}")
    kprime = EffectiveGain.from_scalar(g, alpha, sigma).kprime
    columns = [np.array([value]) for value in (a, b, k, sigma, g, alpha, kprime)]
    return _scalar_verdicts(*columns).verdict(0)


_VACUOUS_NOTE = (
    "variance bound vacuous: nonpositive plant response admits any "
    "demonstration variance"
)


@dataclass(frozen=True)
class VerdictColumns:
    """Scalar verdicts of many cells as columns: labels, smallest margins and
    margins by name. The ``sigma`` margin is NaN where A <= 0, where the
    variance bound is vacuous."""

    label: np.ndarray
    min_margin: np.ndarray
    margins: dict[str, np.ndarray]

    def verdict(self, index: int) -> StabilityVerdict:
        """The verdict of one cell, as :func:`analytic_1d` returns it."""
        margins = {name: float(column[index]) for name, column in self.margins.items()}
        conditions = {"closed_loop": margins["closed_loop"] > 0.0}
        if math.isnan(margins["sigma"]):
            del margins["sigma"]
            conditions["variance_bound"] = True
            notes = (_VACUOUS_NOTE,)
        else:
            conditions["variance_bound"] = margins["sigma"] > 0.0
            notes = ()
        return StabilityVerdict(
            label=str(self.label[index]), margins=margins, conditions=conditions, notes=notes
        )


def _scalar_verdicts(a, b, k, sigma, g, alpha, kprime):
    """The scalar test over equal-length columns of validated parameters,
    with K' = g^2 alpha / sigma^2 given. Each cell sees the IEEE operations
    of a one-cell call, in the same order.

    Margins are the closed-loop slack B K - A, the gain slack K' - A and
    (when A > 0) the variance slack g sqrt(alpha / A) - sigma. The two
    gain-side margins express the same condition in different units; for
    A <= 0 that condition is vacuous and only the closed-loop margin decides
    the label.
    """
    live = a > 0.0
    bk = b * k
    margin_cl = bk - a
    margin_kp = kprime - a
    scale_cl = np.maximum(np.maximum(1.0, np.abs(a)), np.abs(bk))
    scale_kp = np.maximum(np.maximum(1.0, np.abs(a)), kprime)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_star = g * np.sqrt(alpha / a)
    margin_sigma = np.where(live, sigma_star - sigma, np.nan)
    scale_sigma = np.maximum(np.maximum(1.0, sigma), sigma_star)

    label = _resolve_labels(
        [(margin_cl, scale_cl, True), (margin_kp, scale_kp, live), (margin_sigma, scale_sigma, live)],
        "unstable",
    )
    # min() over the margins in order: a later margin wins only when smaller
    smallest = np.where(margin_kp < margin_cl, margin_kp, margin_cl)
    smallest = np.where(live & (margin_sigma < smallest), margin_sigma, smallest)
    return VerdictColumns(
        label=label,
        min_margin=smallest,
        margins={"closed_loop": margin_cl, "kprime": margin_kp, "sigma": margin_sigma},
    )


def second_order_coefficients(A, B, K, Sigma) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (C1, C0) of the second-order elevation
    e'' + C1 e' + C0 e = 0 of the coupled system:
    C1 = Sigma^{-1} - A and C0 = -Sigma^{-1} (A - B K).

    Requires square invertible B (the elevation substitutes
    u = B^{-1}(e' - A e)) and symmetric positive definite Sigma.
    """
    a = matrixkit.require_square(A, "A")
    b = matrixkit.require_square(B, "B")
    k = matrixkit.as_matrix(K, "K")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("A and B must have matching row counts")
    if k.shape != (b.shape[1], a.shape[0]):
        raise DimensionError(f"K must be {b.shape[1]}x{a.shape[0]}, got {k.shape}")
    matrixkit.invert(b)  # raises SingularMatrixError when not invertible
    sigma = matrixkit.check_symmetric(Sigma, "Sigma")
    if not matrixkit.is_positive_definite(sigma):
        raise ParameterError("Sigma must be positive definite")
    sigma_inv = matrixkit.invert(sigma)
    c1 = sigma_inv - a
    c0 = -(sigma_inv @ (a - b @ k))
    return c1, c0


def analytic_ndim(A, B, K, Sigma, g: float, alpha: float) -> StabilityVerdict:
    """N-dimensional sufficient-condition verdict.

    With effective precision P = g^2 alpha Sigma^{-1}:
    (i) lam_min(P) > lam_max(sym(A)), and
    (ii) sym(P (A - B K)) negative definite.
    Both passing yields "stable"; any failure yields "inconclusive" (the
    conditions are sufficient only). Margins are the eigenvalue slacks.
    """
    g, alpha = float(g), float(alpha)
    _check_positive(g=g, alpha=alpha)
    a = matrixkit.require_square(A, "A")
    b = matrixkit.require_square(B, "B")
    k = matrixkit.as_matrix(K, "K")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("A and B must have matching row counts")
    if k.shape != (b.shape[1], a.shape[0]):
        raise DimensionError(f"K must be {b.shape[1]}x{a.shape[0]}, got {k.shape}")
    matrixkit.invert(b)
    precision = EffectiveGain.from_covariance(g, alpha, Sigma).kprime

    s1 = matrixkit.symmetric_part(a)
    lam_max_s1 = float(matrixkit.eig_sym(s1)[-1])
    lam_min_p = float(matrixkit.eig_sym(precision)[0])
    margin_gain = lam_min_p - lam_max_s1

    closed_loop_sym = matrixkit.symmetric_part(precision @ (a - b @ k))
    lam_max_cl = float(matrixkit.eig_sym(closed_loop_sym)[-1])
    margin_cl = -lam_max_cl

    margins = {"gain_vs_plant": margin_gain, "closed_loop": margin_cl}
    conditions = {
        "gain_exceeds_plant_response": margin_gain > 0.0,
        "closed_loop_lyapunov": margin_cl > 0.0,
    }
    notes: list[str] = []
    if lam_max_s1 <= 0.0:
        notes.append(
            "variance threshold vacuous: symmetric part of A has no positive "
            "eigenvalue, any demonstration variance satisfies the gain bound"
        )
    decisive = [
        (margin_gain, max(1.0, abs(lam_min_p), abs(lam_max_s1)), True),
        (margin_cl, max(1.0, abs(lam_max_cl)), True),
    ]
    label = str(_resolve_labels(decisive, "inconclusive"))
    return StabilityVerdict(
        label=label, margins=margins, conditions=conditions, notes=tuple(notes)
    )


def analytic_verdict(plant: PlantModel, K, Sigma, g: float, alpha: float) -> StabilityVerdict:
    """The verdict for ``plant`` under expert (K, Sigma): :func:`analytic_1d`
    with sigma = sqrt(Sigma) for a 1x1 plant, else :func:`analytic_ndim`."""
    if plant.n_states == 1 and plant.n_inputs == 1:
        sigma = float(np.sqrt(Sigma[0, 0]))
        return analytic_1d(plant.A[0, 0], plant.B[0, 0], K[0, 0], sigma, g, alpha)
    return analytic_ndim(plant.A, plant.B, K, Sigma, g, alpha)


def classify_table_row(
    a_sign: float, closed_loop_sign: float, kprime: float, a: float
) -> str:
    """Classification table for the scalar coupled system.

    Rows: positive plant response with nonnegative closed loop is unstable
    for every gain; positive response with negative closed loop is stable
    iff K' >= A; nonpositive response with nonnegative gain is stable.
    """
    if kprime < 0.0:
        raise ParameterError(f"kprime must be >= 0, got {kprime}")
    if a_sign > 0.0:
        if closed_loop_sign >= 0.0:
            return "unstable"
        return "stable" if kprime >= a else "unstable"
    return "stable"


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a named scalar parameter and a linspace over it."""

    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ParameterError(
                f"unknown axis name {self.name!r}; expected one of {AXIS_NAMES}"
            )
        if not (1 <= self.steps <= _MAX_AXIS_STEPS):
            raise ParameterError(
                f"axis steps must be in [1, {_MAX_AXIS_STEPS}], got {self.steps}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ParameterError("axis bounds must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.values())):
                raise ParameterError(
                    f"axis {self.name!r} spans {self.start!r} to {self.stop!r}, which "
                    f"overflows: its values are not all finite"
                )
        if self.name in ("sigma", "g", "alpha", "kprime") and (
            self.start <= 0.0 or self.stop <= 0.0
        ):
            raise ParameterError(f"axis {self.name!r} requires positive bounds")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


DEFAULT_SWEEP_SIM = CouplingConfig(
    mode=CouplingMode.PER_STEP,
    dt=1e-3,
    horizon=20.0,
    e0=(1.0,),
    u0=(0.0,),
    seed=0,
)

_BASE_KEYS = ("A", "B", "K", "sigma", "g", "alpha")


def _validate_axes(axis1: AxisSpec, axis2: AxisSpec):
    if axis1.name == axis2.name:
        raise ParameterError("sweep axes must name two different parameters")
    names = {axis1.name, axis2.name}
    if "kprime" in names and names & {"sigma", "g", "alpha"}:
        raise ParameterError(
            "a kprime axis fixes sigma from g and alpha and cannot be combined "
            "with a sigma, g, or alpha axis"
        )


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """A swept grid as columns, one entry per cell, row-major over
    (axis1, axis2): the axis values, the analytic verdicts and, for an
    empirical sweep, the empirical labels, rates and fit residuals.
    ``analytic.verdict(i)`` is cell i's verdict as :func:`analytic_1d`
    returns it.
    """

    shape: tuple[int, int]
    axis1: np.ndarray
    axis2: np.ndarray
    analytic: VerdictColumns
    empirical_label: np.ndarray | None = None
    empirical_rate: np.ndarray | None = None
    empirical_residual: np.ndarray | None = None

    def __len__(self) -> int:
        return self.axis1.shape[0]

    def stable(self) -> np.ndarray:
        """Whether each cell's analytic label is "stable", as an
        axis1 x axis2 array."""
        return (self.analytic.label == "stable").reshape(self.shape)

    def boundary_points(self) -> list[tuple[float, float]]:
        """The first stable/not crossing along axis2 of each axis1 row, as
        (axis1 value, midpoint of the two axis2 values). Used for the
        region-map overlay."""
        stable = self.stable()
        axis1, axis2 = self.axis1.reshape(self.shape), self.axis2.reshape(self.shape)
        flips = stable[:, 1:] != stable[:, :-1]
        hit = np.flatnonzero(flips.any(axis=1))
        at = flips[hit].argmax(axis=1)
        xs = axis1[hit, at]
        ys = 0.5 * (axis2[hit, at] + axis2[hit, at + 1])
        return list(zip(xs.tolist(), ys.tolist()))


def sweep_region(
    base_params: Mapping[str, float],
    axis1: AxisSpec,
    axis2: AxisSpec,
    *,
    empirical: bool = False,
    sim_config: CouplingConfig | None = None,
) -> SweepGrid:
    """Evaluate a 2-D parameter grid, row-major over (axis1, axis2), as
    columns.

    With ``empirical``, every cell also gets the verdict of a deterministic
    per-step simulation of its scalar system; the cells are compiled
    together and rolled out in batches. The runs take dt, horizon, e0, u0
    and record_stride from ``sim_config`` and ignore its mode and seed: no
    run draws noise, so nothing depends on a seed, and no drift or
    inner-loop setting applies.

    A cell that a one-cell evaluation refuses (``analytic_1d``, or with
    ``empirical`` the cell's policy) raises that evaluation's error; the
    first such cell in row-major order is reported.
    """
    _validate_axes(axis1, axis2)
    missing = [key for key in _BASE_KEYS if key not in base_params]
    if missing:
        raise ParameterError(f"base parameters missing keys: {missing}")
    column1 = np.repeat(axis1.values(), axis2.steps)
    column2 = np.tile(axis2.values(), axis1.steps)
    params = {key: np.full(column1.shape, float(base_params[key])) for key in _BASE_KEYS}
    with np.errstate(all="ignore"):
        for name, column in ((axis1.name, column1), (axis2.name, column2)):
            if name == "kprime":
                params["sigma"] = params["g"] * np.sqrt(params["alpha"] / column)
            else:
                params[name] = column
        sigma, g, alpha = params["sigma"], params["g"], params["alpha"]
        kprime = g * g * alpha / (sigma * sigma)
    refused = ~((sigma > 0.0) & (g > 0.0) & (alpha > 0.0) & (kprime > 0.0) & (kprime < math.inf))
    refused |= ~(np.isfinite(params["A"]) & np.isfinite(params["B"]) & np.isfinite(params["K"]))
    if empirical:
        variance = _policy_variance(sigma)
        # a 1 x 1 variance is positive definite iff it is finite and > 0
        refused |= ~(np.isfinite(variance) & (variance > 0.0))
    if refused.any():
        index = int(refused.argmax())
        _evaluate_cell({key: float(params[key][index]) for key in _BASE_KEYS}, empirical)
        raise RuntimeError(f"sweep cell {index} is refused on the grid but accepted on its own")
    grid = SweepGrid(
        (axis1.steps, axis2.steps),
        column1,
        column2,
        _scalar_verdicts(params["A"], params["B"], params["K"], sigma, g, alpha, kprime),
    )
    if not empirical:
        return grid
    runs = simulate_scalar_grid(
        params["A"], params["B"], params["K"], variance, g, alpha,
        sim_config if sim_config is not None else DEFAULT_SWEEP_SIM,
    )
    verdicts = [classify_empirical(trajectory) for trajectory in runs]
    return replace(
        grid,
        empirical_label=np.array([v.label for v in verdicts]),
        empirical_rate=np.array([v.rate for v in verdicts]),
        empirical_residual=np.array([v.residual for v in verdicts]),
    )


def _policy_variance(sigma: np.ndarray) -> np.ndarray:
    """The variance ``ExpertPolicy(K, [[sigma ** 2]])`` stores for each cell:
    its symmetric part, inf where the square or its symmetrization
    overflows. The squares are taken one by one, as ``**`` on one float,
    which can round differently from ``sigma * sigma`` in the last bit."""
    with np.errstate(over="ignore"):
        squared = np.array([value**2 for value in sigma])
        return 0.5 * (squared + squared)


def _evaluate_cell(params: dict, empirical: bool):
    """The one-cell evaluation of a refused cell, which raises its error."""
    analytic_1d(**params)
    if empirical:
        ExpertPolicy(K=[[params["K"]]], Sigma=[[params["sigma"] ** 2]])
