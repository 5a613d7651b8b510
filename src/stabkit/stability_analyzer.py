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
from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .coupled_sim import CouplingConfig, simulate_scalar_grid
from .diffusion_controller import DiffusionParams
from .errors import DimensionError, NonFiniteError, ParameterError
from .plant import ExpertPolicy, PlantModel, _check_fit

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


def _nonsingular_b(plant: PlantModel) -> np.ndarray:
    """The plant's B; refused unless it is square and nonsingular, as the
    N-D conditions and the second-order elevation need."""
    return matrixkit._nonsingular(matrixkit._check_square(plant.B, "B"))


def _resolve_labels(decisive, failure_label: str) -> np.ndarray:
    """Resolve stable / marginal / <failure_label> per cell from
    (margin, scale, applies) columns or scalars; a pair counts only where
    ``applies`` holds."""
    fails = ties = False
    # an infinite scale comes only with an infinite margin, which decides by its sign
    largest = np.finfo(float).max
    for margin, scale, applies in decisive:
        tolerance = TIE_EPSILON * np.minimum(scale, largest)
        fails = fails | (applies & (margin < -tolerance))
        ties = ties | (applies & (np.abs(margin) <= tolerance))
    return np.where(fails, failure_label, np.where(ties, "marginal", "stable"))


def augmented_matrix(A, B, K, lam) -> np.ndarray:
    """Joint-state dynamics matrix [[A, B], [-L K, -L]] of the coupled
    system, where L is ``lam`` times the identity (scalar) or the effective
    gain matrix itself."""
    plant = PlantModel(A=A, B=B)
    k = matrixkit.as_matrix(K, "K")
    _check_fit(plant.B, k)
    m = plant.n_inputs
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.ndim == 0:
        lam_mat = float(lam_arr) * np.eye(m)
    else:
        lam_mat = matrixkit.require_square(lam_arr, "lam")
        if lam_mat.shape[0] != m:
            raise DimensionError(f"lam must be {m}x{m}, got {lam_mat.shape}")
    return np.block([[plant.A, plant.B], [-(lam_mat @ k), -lam_mat]])


def analytic_1d(
    A: float, B: float, K: float, sigma: float, g: float, alpha: float
) -> StabilityVerdict:
    """Scalar stability verdict.

    Margins report the closed-loop slack B K - A, the gain slack K' - A,
    and (when A > 0) the variance slack g sqrt(alpha / A) - sigma. The two
    gain-side margins express the same condition in different units; for
    A <= 0 that condition is vacuous and only the closed-loop margin decides
    the label. Each argument must be a real number, as ``matrixkit.as_real``
    takes it.
    """
    named = {"A": A, "B": B, "K": K, "sigma": sigma, "g": g, "alpha": alpha}
    a, b, k, sigma, g, alpha = (matrixkit.as_real(value, name) for name, value in named.items())
    matrixkit._check_positive(sigma=sigma, g=g, alpha=alpha)
    for name, value in (("A", a), ("B", b), ("K", k)):
        if not math.isfinite(value):
            raise NonFiniteError(f"{name} must be finite, got {value}")
    columns = [np.array([value]) for value in (a, b, k, sigma, g, alpha)]
    return _scalar_verdicts(*columns, _effective_gain(*columns[3:])).verdict(0)


def _effective_gain(sigma, g, alpha) -> np.ndarray:
    """K' = g^2 alpha / sigma^2 of columns of positive sigma, g and alpha;
    ParameterError for the first cell whose K' is not in (0, inf)."""
    with np.errstate(all="ignore"):
        sigma_sq = sigma * sigma
        kprime = g * g * alpha / sigma_sq
    refused = ~((kprime > 0.0) & (kprime < math.inf))
    if refused.any():
        i = int(refused.argmax())
        if kprime[i] == math.inf or sigma_sq[i] == 0.0:
            raise ParameterError(
                f"effective gain g^2 alpha / sigma^2 overflows at sigma={float(sigma[i])}, "
                f"g={float(g[i])}, alpha={float(alpha[i])}"
            )
        raise ParameterError(f"effective gain must be > 0, got {float(kprime[i])}")
    return kprime


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
    """The test of :func:`analytic_1d`, with its margins, over equal-length
    columns of checked parameters and K' = g^2 alpha / sigma^2. Each cell's
    margins are the same IEEE operations on that cell's values alone, so a
    cell judges alike on any grid and on its own.
    """
    live = a > 0.0
    # a margin past the float range is inf, and decides; sigma* is NaN where A <= 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bk = b * k
        margin_cl = bk - a
        margin_kp = kprime - a
        sigma_star = g * np.sqrt(alpha / a)
    scale_cl = np.maximum(np.maximum(1.0, np.abs(a)), np.abs(bk))
    scale_kp = np.maximum(np.maximum(1.0, np.abs(a)), kprime)
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

    ``PlantModel`` and ``ExpertPolicy`` check the arrays, and B must be
    square and nonsingular (the elevation substitutes u = B^{-1}(e' - A e));
    a coefficient past the float range is refused by name.
    """
    plant, policy = PlantModel(A=A, B=B), ExpertPolicy(K=K, Sigma=Sigma)
    _check_fit(plant.B, policy.K)
    b = _nonsingular_b(plant)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are refused by name below
        c1 = policy.sigma_inv - plant.A
        c0 = -(policy.sigma_inv @ (plant.A - b @ policy.K))
    return (matrixkit._finite(c1, "coefficient C1 = Sigma^-1 - A"),
            matrixkit._finite(c0, "coefficient C0 = -Sigma^-1 (A - B K)"))


def analytic_ndim(A, B, K, Sigma, g: float, alpha: float) -> StabilityVerdict:
    """N-dimensional sufficient-condition verdict.

    With effective precision P = g^2 alpha Sigma^{-1}:
    (i) lam_min(P) > lam_max(sym(A)), and
    (ii) sym(P (A - B K)) negative definite.
    Both passing yields "stable"; any failure yields "inconclusive" (the
    conditions are sufficient only). Margins are the eigenvalue slacks.
    ``PlantModel``, ``ExpertPolicy`` and ``DiffusionParams`` check the
    arguments, and refuse them with their own messages.
    """
    plant, policy = PlantModel(A=A, B=B), ExpertPolicy(K=K, Sigma=Sigma)
    _check_fit(plant.B, policy.K)
    return _ndim_verdict(plant, policy, DiffusionParams(g=g, alpha=alpha))


def _ndim_verdict(plant, policy, diffusion) -> StabilityVerdict:
    """:func:`analytic_ndim` of checked inputs whose policy fits the plant."""
    a, b, k = plant.A, _nonsingular_b(plant), policy.K
    g, alpha = diffusion.g, diffusion.alpha
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are refused by name below
        precision = matrixkit._symmetric(g * g * alpha * policy.sigma_inv)
        closed_loop = precision @ (a - b @ k)
    matrixkit._finite(precision, "matrix effective gain g^2 alpha Sigma^-1")
    matrixkit._require_positive_definite(precision, "matrix effective gain")
    lam_max_s1 = float(np.linalg.eigvalsh(matrixkit._symmetric(a))[-1])
    lam_min_p = float(np.linalg.eigvalsh(precision)[0])
    margin_gain = lam_min_p - lam_max_s1

    matrixkit._finite(closed_loop, "closed-loop product g^2 alpha Sigma^-1 (A - B K)")
    lam_max_cl = float(np.linalg.eigvalsh(matrixkit._symmetric(closed_loop))[-1])
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
    label = _resolve_labels(decisive, "inconclusive").item()
    return StabilityVerdict(
        label=label, margins=margins, conditions=conditions, notes=tuple(notes)
    )


def analytic_verdict(
    plant: PlantModel, policy: ExpertPolicy, diffusion: DiffusionParams
) -> StabilityVerdict:
    """The verdict for ``plant`` under ``policy`` and ``diffusion``: for a
    1x1 plant, the one cell of :func:`_scalar_cells`, judged as
    :func:`analytic_1d` judges it with sigma = sqrt(Sigma); else
    :func:`analytic_ndim`. Their constructors checked every array, so only
    how the three fit together is checked here: the policy fits the plant,
    and an N-D plant's B is square and nonsingular."""
    if plant.n_states == 1 and plant.n_inputs == 1:
        return _scalar_verdicts(*_scalar_cells(plant, policy, diffusion)[:7]).verdict(0)
    _check_fit(plant.B, policy.K)
    return _ndim_verdict(plant, policy, diffusion)


def _scalar_cells(plant, policy, diffusion, swept=()) -> tuple[np.ndarray, ...]:
    """The columns (A, B, K, sigma, g, alpha, K', variance) of the scalar
    system ``plant`` under ``policy`` and ``diffusion``: one cell, or one per
    entry of the swept ``(name, column)`` pairs, each replacing its
    parameter. sigma = sqrt(Sigma) and the variance is Sigma, except where a
    ``sigma`` value s sets Sigma = s * s, or a ``kprime`` value k sets
    sigma = g sqrt(alpha / k) and Sigma = sigma * sigma.

    Refused: a plant that is not 1x1, a K that does not fit it, and, as
    :func:`analytic_1d` refuses it, the first cell whose K' is not in
    (0, inf); only such a cell can have a variance of 0 or inf.
    """
    if plant.n_states != 1 or plant.n_inputs != 1:
        raise ParameterError(f"sweep and phase-plane require a scalar plant, got B {plant.B.shape}")
    _check_fit(plant.B, policy.K)
    cells = {"A": plant.A[0], "B": plant.B[0], "K": policy.K[0], "sigma": np.sqrt(policy.Sigma[0]),
             "g": np.array([diffusion.g]), "alpha": np.array([diffusion.alpha]),
             "variance": policy.Sigma[0]}
    if swept:
        size = swept[0][1].shape[0]
        cells = {name: np.full(size, column[0]) for name, column in cells.items()}
        with np.errstate(all="ignore"):  # a sigma or variance past the float range has a refused K'
            for name, column in swept:
                if name == "kprime":
                    cells["sigma"] = cells["g"] * np.sqrt(cells["alpha"] / column)
                else:
                    cells[name] = column
                if name in ("sigma", "kprime"):
                    cells["variance"] = cells["sigma"] * cells["sigma"]
    a, b, k, sigma, g, alpha, variance = cells.values()
    return a, b, k, sigma, g, alpha, _effective_gain(sigma, g, alpha), variance


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
        for name in ("start", "stop"):
            object.__setattr__(self, name, matrixkit.as_real(getattr(self, name), f"axis {name}"))
        object.__setattr__(self, "steps", matrixkit.as_whole(self.steps, "axis steps"))
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
    plant: PlantModel,
    policy: ExpertPolicy,
    diffusion: DiffusionParams,
    axis1: AxisSpec,
    axis2: AxisSpec,
    run: CouplingConfig | None = None,
) -> SweepGrid:
    """Evaluate a 2-D grid of the scalar system ``plant`` under ``policy``
    and ``diffusion``, row-major over (axis1, axis2), as columns. A cell is
    that system with the swept parameters replaced, built by
    :func:`_scalar_cells` as ``analyze`` and ``phase-plane --kprime`` build
    theirs, so its analytic verdict is the one :func:`analytic_verdict`
    gives its system.

    Given a ``run``, the sweep is empirical: every cell also gets the
    verdict ``classify_empirical`` gives the deterministic per-step
    ``simulate`` run of its system, computed as columns by
    :func:`~stabkit.coupled_sim.simulate_scalar_grid`. The runs take dt,
    horizon, e0, u0 and record_stride from ``run`` and ignore its mode and
    seed: no run draws noise, and no drift or inner-loop setting applies.

    A cell whose K' = g^2 alpha / sigma^2 is not in (0, inf) is refused
    with the error :func:`analytic_1d` raises for it; the first such cell
    in row-major order is reported.
    """
    names = {axis1.name, axis2.name}
    if len(names) == 1:
        raise ParameterError("sweep axes must name two different parameters")
    if "kprime" in names and names & {"sigma", "g", "alpha"}:
        raise ParameterError(
            "a kprime axis fixes sigma from g and alpha and cannot be combined "
            "with a sigma, g, or alpha axis"
        )
    column1 = np.repeat(axis1.values(), axis2.steps)
    column2 = np.tile(axis2.values(), axis1.steps)
    swept = ((axis1.name, column1), (axis2.name, column2))
    a, b, k, sigma, g, alpha, kprime, variance = _scalar_cells(plant, policy, diffusion, swept)
    verdicts = _scalar_verdicts(a, b, k, sigma, g, alpha, kprime)
    empirical_columns = ()  # label, rate and residual, in SweepGrid's field order
    if run is not None:
        empirical_columns = simulate_scalar_grid(a, b, k, variance, g, alpha, run)
    return SweepGrid((axis1.steps, axis2.steps), column1, column2, verdicts, *empirical_columns)
