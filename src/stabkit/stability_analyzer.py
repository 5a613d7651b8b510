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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import matrixkit
from .coupled_sim import (
    CouplingConfig,
    CouplingMode,
    EmpiricalVerdict,
    classify_empirical,
    simulate_many,
)
from .diffusion_controller import DiffusionParams
from .errors import DimensionError, ParameterError
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
        g, alpha, sigma = float(g), float(alpha), float(sigma)
        _check_positive(sigma=sigma, g=g, alpha=alpha)
        return cls(g * g * alpha / (sigma * sigma))

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


def _resolve_label(
    margins: list[tuple[float, float]], failure_label: str, tie_epsilon: float
) -> str:
    """Resolve stable / marginal / <failure_label> from (margin, scale) pairs."""
    if any(m < -tie_epsilon * s for m, s in margins):
        return failure_label
    if any(abs(m) <= tie_epsilon * s for m, s in margins):
        return "marginal"
    return "stable"


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
    A: float,
    B: float,
    K: float,
    sigma: float,
    g: float,
    alpha: float,
    *,
    tie_epsilon: float = TIE_EPSILON,
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
    kprime = EffectiveGain.from_scalar(g, alpha, sigma).kprime

    margin_cl = b * k - a
    margin_kp = kprime - a
    scale_cl = max(1.0, abs(a), abs(b * k))
    scale_kp = max(1.0, abs(a), kprime)

    margins = {"closed_loop": margin_cl, "kprime": margin_kp}
    conditions = {"closed_loop": margin_cl > 0.0}
    notes: list[str] = []
    decisive = [(margin_cl, scale_cl)]

    if a > 0.0:
        sigma_star = g * math.sqrt(alpha / a)
        margin_sigma = sigma_star - sigma
        margins["sigma"] = margin_sigma
        conditions["variance_bound"] = margin_sigma > 0.0
        decisive.append((margin_kp, scale_kp))
        decisive.append((margin_sigma, max(1.0, sigma, sigma_star)))
    else:
        conditions["variance_bound"] = True
        notes.append(
            "variance bound vacuous: nonpositive plant response admits any "
            "demonstration variance"
        )

    label = _resolve_label(decisive, "unstable", tie_epsilon)
    return StabilityVerdict(
        label=label, margins=margins, conditions=conditions, notes=tuple(notes)
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


def analytic_ndim(
    A,
    B,
    K,
    Sigma,
    g: float,
    alpha: float,
    *,
    tie_epsilon: float = TIE_EPSILON,
) -> StabilityVerdict:
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
        (margin_gain, max(1.0, abs(lam_min_p), abs(lam_max_s1))),
        (margin_cl, max(1.0, abs(lam_max_cl))),
    ]
    label = _resolve_label(decisive, "inconclusive", tie_epsilon)
    return StabilityVerdict(
        label=label, margins=margins, conditions=conditions, notes=tuple(notes)
    )


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
        if self.name in ("sigma", "g", "alpha", "kprime") and (
            self.start <= 0.0 or self.stop <= 0.0
        ):
            raise ParameterError(f"axis {self.name!r} requires positive bounds")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: axis values, the analytic verdict and (optionally) the
    empirical verdict of a deterministic per-step simulation."""

    index: int
    axis1_value: float
    axis2_value: float
    analytic: StabilityVerdict
    empirical: EmpiricalVerdict | None = None


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


def _apply_axis(params: dict, name: str, value: float) -> dict:
    out = dict(params)
    if name == "kprime":
        if not (value > 0.0):
            raise ParameterError(f"kprime must be > 0, got {value}")
        out["sigma"] = out["g"] * math.sqrt(out["alpha"] / value)
    else:
        out[name] = float(value)
    return out


def sweep_region(
    base_params: Mapping[str, float],
    axis1: AxisSpec,
    axis2: AxisSpec,
    *,
    empirical: bool = False,
    sim_config: CouplingConfig | None = None,
) -> list[SweepCell]:
    """Evaluate a 2-D parameter grid, row-major over (axis1, axis2).

    With ``empirical``, every cell also gets the verdict of a deterministic
    per-step simulation; the cells are rolled out together in batches.
    Cell seeds derive from the simulation seed XOR the row-major cell index,
    so results are independent of evaluation order.
    """
    _validate_axes(axis1, axis2)
    missing = [key for key in _BASE_KEYS if key not in base_params]
    if missing:
        raise ParameterError(f"base parameters missing keys: {missing}")
    base = {key: float(base_params[key]) for key in _BASE_KEYS}
    sim = sim_config if sim_config is not None else DEFAULT_SWEEP_SIM
    cells = []
    runs = []
    grid = itertools.product(axis1.values().tolist(), axis2.values().tolist())
    for index, (v1, v2) in enumerate(grid):
        params = _apply_axis(_apply_axis(base, axis1.name, v1), axis2.name, v2)
        cells.append(SweepCell(index, v1, v2, analytic_1d(**params)))
        if empirical:
            plant = PlantModel(A=[[params["A"]]], B=[[params["B"]]], setpoint=[0.0])
            policy = ExpertPolicy(K=[[params["K"]]], Sigma=[[params["sigma"] ** 2]])
            diffusion = DiffusionParams(g=params["g"], alpha=params["alpha"])
            config = replace(sim, mode=CouplingMode.PER_STEP, seed=sim.seed ^ index)
            runs.append((plant, policy, diffusion, config))
    if empirical:
        cells = [
            replace(cell, empirical=classify_empirical(trajectory))
            for cell, trajectory in zip(cells, simulate_many(runs))
        ]
    return cells


def stable_boundary_points(
    cells: list[SweepCell], steps1: int, steps2: int
) -> list[tuple[float, float]]:
    """Midpoints along axis2 where the analytic label crosses stable/not,
    one scan per axis1 row. Used for the region-map overlay."""
    points = []
    for i in range(steps1):
        row = cells[i * steps2 : (i + 1) * steps2]
        for j in range(steps2 - 1):
            here = row[j].analytic.label == "stable"
            there = row[j + 1].analytic.label == "stable"
            if here != there:
                points.append(
                    (
                        row[j].axis1_value,
                        0.5 * (row[j].axis2_value + row[j + 1].axis2_value),
                    )
                )
                break
    return points
