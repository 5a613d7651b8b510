"""Integration of the coupled plant/controller system and empirical
classification of the resulting trajectories.

Three coupling modes are supported:

* ``expert-oracle``: the plant is driven by the deterministic expert
  u = -K e recomputed every step (a closed-form reference).
* ``per-step``: one denoising update per plant step, warm-starting from the
  previous action; controller and plant evolve at the same time scale.
* ``inner-loop``: the denoising process runs to completion against a frozen
  plant state each step (re-initialized from noise, or zero when
  deterministic), then the plant advances under the resulting action.

Integration is explicit Euler (Euler-Maruyama when stochastic) with fixed
step dt. Per-step coupling advances the plant with the pre-update action so
the two updates commute to O(dt^2).

The coupled system is linear, so every mode compiles to one affine step map
z <- M z + c + G xi on the joint state z = (e, u), with xi the step's
standard normal draws. One rollout advances a batch of such maps: one run
for ``simulate``, or the cells of a scalar sweep for
``simulate_scalar_grid``, which keeps only what the rate fit reads and
fits every cell in one vectorized pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _textfmt, matrixkit
from .diffusion_controller import DiffusionParams, RngStream, default_inner_dt
from .errors import NonFiniteError, ParameterError
from .plant import ExpertPolicy, PlantModel, _check_fit

# A recorded state or action norm beyond BLOWUP_FACTOR * (1 + |e0|) declares
# divergence; non-finite values are flagged the same way rather than thrown.
BLOWUP_FACTOR = 1e9

# Fitted log-norm slopes within this band of zero are classified "marginal".
RATE_DEADBAND = 0.02

# Samples with joint norm below this are excluded from the decay-rate fit.
_NORM_FLOOR = 1e-300

# Norms below the root of the smallest normal float have subnormal squares.
_SQUARES_FLOOR = math.sqrt(np.finfo(float).tiny)

_MIN_STEPS = 10
# Step indices are floats (sample times are index * dt): every count up to
# 2**53 is exact.
_MAX_STEPS = 2**53

# Recorded samples per vectorized block: the length of the power table.
_BLOCK = 128

# Largest entry a power of a step map may have and still be applied to a
# recorded state, which is at most the blow-up bound.
_POWER_CAP = 1e100

# Floats of records and power tables one batch of rollouts may hold.
_BATCH_FLOATS = 1 << 17


class CouplingMode(str, Enum):
    EXPERT_ORACLE = "expert-oracle"
    PER_STEP = "per-step"
    INNER_LOOP = "inner-loop"


@dataclass(frozen=True)
class CouplingConfig:
    """How controller and plant dynamics interleave during one rollout.

    u0 seeds the per-step warm start; the expert-oracle and inner-loop modes
    ignore it dynamically but still record it at t = 0.
    """

    mode: CouplingMode
    dt: float
    horizon: float
    e0: np.ndarray
    u0: np.ndarray
    seed: int = 0
    record_stride: int = 1
    dt_inner: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", CouplingMode(self.mode))
        for name in ("dt", "horizon"):
            object.__setattr__(self, name, matrixkit.as_real(getattr(self, name), name))
        for name in ("seed", "record_stride"):
            object.__setattr__(self, name, matrixkit.as_whole(getattr(self, name), name))
        if self.dt_inner is not None:
            object.__setattr__(self, "dt_inner", matrixkit.as_real(self.dt_inner, "dt_inner"))
        matrixkit._check_positive(dt=self.dt, horizon=self.horizon)
        if not math.isfinite(self.horizon / self.dt):
            raise ParameterError(f"horizon/dt = {self.horizon / self.dt} steps is not finite")
        if self.n_steps > _MAX_STEPS:
            raise ParameterError(
                f"horizon/dt = {self.horizon / self.dt:.3g} steps is more than 2**53, "
                f"past which step indices are not exact floats"
            )
        if self.n_steps < _MIN_STEPS:
            raise ParameterError(
                f"horizon/dt = {self.horizon / self.dt:.3g} gives fewer than "
                f"{_MIN_STEPS} steps; such runs are unclassifiable"
            )
        if self.record_stride < 1:
            raise ParameterError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.dt_inner is not None:
            matrixkit._check_positive(dt_inner=self.dt_inner)
            if self.dt_inner == math.inf:
                raise NonFiniteError(f"dt_inner must be finite, got {self.dt_inner}")
        object.__setattr__(self, "e0", matrixkit.as_vector(self.e0, "e0"))
        object.__setattr__(self, "u0", matrixkit.as_vector(self.u0, "u0"))

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Recorded rollout: times, error states (S x N), actions (S x M)."""

    times: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    config: CouplingConfig
    diverged: bool

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class EmpiricalVerdict:
    """Fitted exponential rate of the joint norm and its classification."""

    rate: float
    label: str
    residual: float


@dataclass(frozen=True)
class ComparisonReport:
    per_step: EmpiricalVerdict
    inner_loop: EmpiricalVerdict
    terminal_gap: float


def _validate_run(
    plant: PlantModel, policy: ExpertPolicy, diffusion: DiffusionParams, config: CouplingConfig
):
    _check_fit(plant.B, policy.K)
    _check_start(config, plant.n_states, plant.n_inputs)
    if diffusion.drift is not None:
        matrixkit._check_length(diffusion.drift, "drift", "plant", plant.n_inputs)


def _check_start(config: CouplingConfig, n: int, m: int):
    matrixkit._check_length(config.e0, "e0", "plant", n)
    matrixkit._check_length(config.u0, "u0", "plant", m)


def simulate(
    plant: PlantModel,
    policy: ExpertPolicy,
    diffusion: DiffusionParams,
    config: CouplingConfig,
) -> Trajectory:
    """Roll out the coupled system and record every ``record_stride``-th step.

    The first sample is (e0, u0) at t = 0 and the final step is always
    recorded. Divergence (a recorded norm beyond the blow-up bound, or a
    non-finite value) stops the run early with ``diverged=True``.
    """
    step_mat, step_off, noise = _compile(plant, policy, diffusion, config)
    counts, diverged, records = _rollout(
        step_mat[None], step_off[None], None if noise is None else noise[None], config
    )
    kept, n = counts[0], config.e0.shape[0]
    return Trajectory(_sample_steps(config)[:kept] * config.dt, records[0, :kept, :n].copy(),
                      records[0, :kept, n:-1].copy(), config, bool(diverged[0]))


def simulate_scalar_grid(a, b, k, variance, g, alpha, config: CouplingConfig):
    """Empirical verdicts of deterministic per-step runs of scalar systems
    given as columns: row i is ``classify_empirical(simulate(...))`` of the
    plant (a[i], b[i]) under the policy (k[i], variance[i]) and the
    diffusion (g[i], alpha[i]), with the step count, dt, stride and start of
    ``config``. Returns the columns (label, rate, residual); a row diverged
    exactly when its rate is +inf.

    All rows compile in one call and roll out in batches of bounded memory,
    through the rollout of ``simulate``. A row keeps only the joint norms of
    the trailing half of its samples, which the fit reads, and whether it
    diverged; no trajectory is built. Each batch is fitted in one
    vectorized pass, the rule of :func:`classify_empirical`. Each row
    keeps the samples of its own run, so the verdicts are exact.
    """
    _check_start(config, 1, 1)
    with np.errstate(over="ignore"):  # a subnormal variance has Sigma^-1 = inf, as in simulate
        sigma_inv = _column(1.0 / variance)
    step_mat, step_off, _ = _step_maps(
        CouplingMode.PER_STEP, _column(a), _column(b), _column(k), sigma_inv, config.dt, g, alpha
    )
    # A row holds the norms of its trailing samples and, per power of its
    # 3 x 3 homogeneous map in the table, that power and one sample; a batch
    # stops growing once it reaches _BATCH_FLOATS floats.
    times = _sample_steps(config) * config.dt
    row_floats = times.size - times.size // 2 + _BLOCK * (9 + 3)
    rows = max(1, -(-_BATCH_FLOATS // row_floats))
    columns = []
    for first in range(0, step_mat.shape[0], rows):
        _, diverged, tails = _rollout(step_mat[first : first + rows],
                                      step_off[first : first + rows], None, config, tail=True)
        columns.append(_fit_rows(times, tails, diverged))
    return tuple(np.concatenate(column) for column in zip(*columns))


def _compile(
    plant: PlantModel,
    policy: ExpertPolicy,
    diffusion: DiffusionParams,
    config: CouplingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The step map ``(M, c, G)`` of one run; see :func:`_step_maps`."""
    _validate_run(plant, policy, diffusion, config)
    drift = np.zeros(plant.n_inputs) if diffusion.drift is None else diffusion.drift
    dt_inner = config.dt_inner if config.dt_inner is not None else default_inner_dt(
        diffusion, config.dt
    )
    step_mat, step_off, noise = _step_maps(
        config.mode, plant.A[None], plant.B[None], policy.K[None], policy.sigma_inv[None],
        config.dt, diffusion.g, diffusion.alpha, drift=drift[None], dt_inner=dt_inner,
        inner_steps=diffusion.inner_steps, stochastic=diffusion.stochastic,
    )
    return step_mat[0], step_off[0], None if noise is None else noise[0]


def _column(values) -> np.ndarray:
    """Per-run scalars (or one scalar) as a B x 1 x 1 array."""
    return np.asarray(values, dtype=float).reshape(-1, 1, 1)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite map is a blow-up the rollout reports
def _step_maps(
    mode: CouplingMode, a, b, k, sigma_inv, dt, g, alpha, *, drift=None, dt_inner=None,
    inner_steps: int = 1, stochastic: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One plant step of a coupling mode as ``z <- M z + c + G xi`` on the
    joint state z = (e, u), for a batch of runs: A, B, K and Sigma^-1 carry a
    leading batch axis, and dt, g, alpha and dt_inner are per-run columns (or
    scalars). xi holds the step's standard normal draws in the order the
    reference functions consume them; G is None when the step draws nothing.

    Each mode sets the new action u' = F_e e + F_u u + f + W xi. Per-step
    coupling advances the plant with the pre-update action u, the others with
    u'. The inner loop's n updates u <- P u + Q e + d, from xi_0 (or 0 when
    deterministic), sum to F_e = sum_j P^j Q, f = sum_j P^j d and
    W = [P^n, s P^(n-1), ..., s I].
    """
    rows, n, m = b.shape
    dt_col, gain = _column(dt), _column(g * g * alpha)
    drift = np.zeros((rows, m)) if drift is None else drift
    eye = np.eye(m)
    f_u, w_mat = np.zeros((rows, m, m)), None
    if mode is CouplingMode.EXPERT_ORACLE:
        f_e, f_vec = -k, np.zeros((rows, m))
    elif mode is CouplingMode.PER_STEP:
        f_e = -dt_col * gain * (sigma_inv @ k)
        f_u = eye - dt_col * gain * sigma_inv
        f_vec = dt_col[:, 0] * drift
        w_mat = _column(np.sqrt(alpha) * g * np.sqrt(dt)) * eye
    else:
        dt_equiv = _column(np.asarray(dt_inner) / alpha)
        powers = [np.broadcast_to(eye, (rows, m, m))]
        for _ in range(inner_steps):
            powers.append(powers[-1] - dt_equiv * gain * (sigma_inv @ powers[-1]))
        p_sum = np.sum(powers[:-1], axis=0)
        f_e = -dt_equiv * gain * (p_sum @ sigma_inv @ k)
        f_vec = dt_equiv[:, 0] * (p_sum @ drift[..., None])[..., 0]
        scale = _column(np.sqrt(alpha) * g) * np.sqrt(dt_equiv)
        w_mat = np.concatenate([powers[-1]] + [scale * p for p in reversed(powers[:-1])], axis=2)
    # Coupling through u' folds F_e into the plant row and drops u from it.
    through_new = dt_col * b if mode is not CouplingMode.PER_STEP else np.zeros((rows, n, m))
    step_mat = np.concatenate([
        np.concatenate([np.eye(n) + dt_col * a + through_new @ f_e, dt_col * b - through_new], axis=2),
        np.concatenate([f_e, f_u], axis=2),
    ], axis=1)
    step_off = np.concatenate([(through_new @ f_vec[..., None])[..., 0], f_vec], axis=1)
    if w_mat is None or not stochastic:
        return step_mat, step_off, None
    return step_mat, step_off, np.concatenate([through_new @ w_mat, w_mat], axis=1)


def _sample_steps(config: CouplingConfig) -> np.ndarray:
    """The plant step of each recorded sample, as floats: 0, every stride-th
    step and the final step."""
    steps, stride = config.n_steps, config.record_stride
    with _fits_in_memory(config):
        return np.concatenate([[0.0], np.arange(stride, steps + 1, stride),
                               [steps] if steps % stride else []])


@contextmanager
def _fits_in_memory(config: CouplingConfig):
    """Refuse a run whose sample indices or records memory cannot hold."""
    try:
        yield
    except MemoryError:
        steps, stride = config.n_steps, config.record_stride
        raise ParameterError(f"horizon/dt = {steps} steps at record_stride {stride} give "
                             f"{-(-steps // stride) + 1} samples, more than memory holds") from None


def _rollout(step_mat, step_off, noise, config: CouplingConfig, tail: bool = False):
    """Roll out a batch of compiled runs of one shape.

    Row r is the map (step_mat[r], step_off[r], noise[r]); every row starts
    from ``config``'s (e0, u0) and takes its step count, stride and dt. A
    noisy batch is one run, which draws from the stream of ``config.seed``.
    Returns, per row, how many samples it recorded, whether it diverged and
    what it kept of its S samples (see :func:`_sample_steps`): the
    homogeneous joint states (z, 1) (B x S x D+1), or with ``tail`` the
    joint norms of samples S // 2 onward (B x S - S // 2), which is all
    the rate fit reads. A row keeps junk past its last sample.

    The maps act on homogeneous rows (z, 1), so z M^T + c is one matmul by
    H. Rows advance in spans of plant steps, a block of up to ``_BLOCK``
    spans per batched matmul, against a table of the powers of P = H^span
    built by doubling. A noisy row adds its block's draws Xi as Xi T, with T
    the block-Toeplitz map of the noise-mapped powers [G^T, 0] H^m, applied
    in two factors: each span's draws reach its end through one span's kicks
    (``_kicks``), and a doubling scan by P, P^2, P^4, ... carries them to
    the later spans. A noiseless row is the zero-width case. A block's draws
    and the kicks fit ``_BATCH_FLOATS``.

    A row's span is the stride (capped at the step count) when its P,
    remainder power H^(steps mod span) and kicks stay within ``_POWER_CAP``
    and its kicks fit the budget: an overflowing power would turn an exact
    zero state into NaN. Otherwise it is one plant step, against a power
    table as long as the budget allows; a block then records, and checks
    for blow-up, only its steps on the stride grid and the final step, and
    is at least one step even when H passes the cap. A batch advances by
    the blocks of its rows with the most usable powers. Any other row keeps
    its record if it blew up within its own usable powers, as its own run
    does, and otherwise rolls out again alone, as every stepping row of a
    batch of several does.

    Draws: a noisy block takes its draws in one ``standard_normal`` call, in
    the order ``full_denoise`` takes them; a run that diverges mid block has
    drawn its whole block, and nothing reads the draws past its last sample.
    """
    count, dim = step_mat.shape[:2]
    steps, stride, n = config.n_steps, config.record_stride, config.e0.shape[0]
    width = 0 if noise is None else noise.shape[2]
    hom = np.zeros((count, dim + 1, dim + 1))
    hom[:, dim, dim] = 1.0
    hom[:, :dim, :dim], hom[:, dim, :dim] = step_mat.transpose(0, 2, 1), step_off
    span = min(stride, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        e0_norm = _rescaled(np.array([np.linalg.norm(config.e0)]), config.e0[None])
        table = _power_table(np.linalg.matrix_power(hom, span), min(steps // span, _BLOCK))
        last = np.linalg.matrix_power(hom, steps % span)
        usable = _leading_capped(table)
        fits = (usable > 0) & (_leading_capped(last[:, None]) > 0)
        if width:
            # One span's kicks, and a block's draws, fit the budget.
            fits &= span <= max(1, _BATCH_FLOATS // (width * (dim + 1)))
            kicks = _kicks(hom, noise, span if fits.all() else 1)
            fits &= (np.abs(kicks) <= _POWER_CAP).all(axis=(1, 2))
    z0 = np.concatenate([config.e0, config.u0, [1.0]])
    ks = _sample_steps(config)
    start = ks.size // 2 if tail else 0
    with _fits_in_memory(config):
        kept = np.empty((count, ks.size - start) + (() if tail else (dim + 1,)))
    counts = np.full(count, ks.size)
    diverged = np.zeros(count, dtype=bool)
    rng = RngStream(config.seed) if width else None

    def keep(samples, first):
        """Stop each live row whose samples (samples[:, i] is record
        first + i) blow up."""
        rows = np.flatnonzero(live)
        block = samples[rows]
        e_u = block[..., :n], block[..., n:dim]
        norms = [_rescaled(np.sqrt(np.sum(v ** 2, axis=-1)), v) for v in e_u]
        # A sample blows up past blow or on a non-finite entry. A NaN in e or
        # u makes its norm NaN and an inf makes it inf, and neither is within
        # a finite blow; the homogeneous 1, and every entry when blow is
        # infinite, are checked apart.
        unchecked = block[..., dim:] if math.isfinite(blow) else block
        bad = ~(np.maximum(*norms) <= blow) | ~np.isfinite(unchecked).all(axis=-1)
        hit = bad.any(axis=1)
        counts[rows[hit]] = first + 1 + bad[hit].argmax(axis=1)
        diverged[rows[hit]] = True
        live[rows[hit]] = False

    def write(first, samples):
        """Keep what ``tail`` asks of records first, first + 1, ... of every
        row (samples[:, i] is record first + i)."""
        stop = first + samples.shape[1]
        if not tail:
            kept[:, first:stop] = samples
        elif stop > start:
            skip = max(start - first, 0)
            kept[:, first + skip - start : stop - start] = _joint_norms(
                samples[:, skip:, :n], samples[:, skip:, n:dim]
            )

    with np.errstate(over="ignore", invalid="ignore"):
        blow = BLOWUP_FACTOR * (1.0 + e0_norm[0])
        write(0, np.broadcast_to(z0, (count, 1, dim + 1)))
        if count == 1 and not fits[0]:
            length = max(_BLOCK, _BATCH_FLOATS // (dim + 1) ** 2)
            span, table = 1, _power_table(hom, min(steps, length))
            usable = _leading_capped(table)
        full, rem = divmod(steps, span)
        if width:
            usable = np.minimum(usable, _BATCH_FLOATS // (span * width))
        # Record r is the state after ends[r] spans.
        ends = -(-ks.astype(np.int64) // span)
        # Rows that stopped, or step in a batch of several, are carried as zeros.
        live = fits | (count == 1)
        z = np.tile(z0, (count, 1))
        done, first = 0, 1
        while live.any() and done < full + (rem > 0):
            main = done < full
            size = max(1, int(min(full - done, usable[live].max()))) if main else 1
            block = np.matmul(z[:, None, None], table[:, :size] if main else last[:, None])[:, :, 0]
            if width:
                # Each span's own draws, then those of earlier spans carried
                # forward by a doubling scan over the powers.
                per = (span if main else rem) * width
                xi = rng.standard_normal(size * per).reshape(1, size, per)
                kicked = np.matmul(xi, kicks[:, kicks.shape[1] - per :])
                lag = 1
                while lag < size:
                    kicked[:, lag:] += np.matmul(kicked[:, :-lag], table[:, lag - 1])
                    lag *= 2
                block += kicked
            stop = int(np.searchsorted(ends, done + size, "right"))
            samples = np.take(block, ends[first:stop] - done - 1, axis=1)
            write(first, samples)
            if stop > first:
                keep(samples, first)
            z = np.where(live[:, None], block[:, -1], 0.0)
            done, first = done + size, stop
    if count > 1:  # noiseless rows are independent, so a row can roll out again alone
        own = (usable == usable.max(initial=0, where=fits)) | diverged & (ends[counts - 1] <= usable)
        for row in np.flatnonzero(~(fits & own)):  # the rows not run by their own blocks
            counts[row], diverged[row], kept[row] = (column[0] for column in _rollout(
                step_mat[[row]], step_off[[row]], None, config, tail))
    return counts, diverged, kept


def _kicks(hom, noise, steps: int) -> np.ndarray:
    """How the draws of ``steps`` plant steps reach the state after them, for
    a batch of homogeneous maps H (B x D+1 x D+1) with noise maps G
    (B x D x W): row t W + i of the result (B x steps W x D+1) is the image
    [G^T, 0] H^(steps - 1 - t) of draw i of step t, built by doubling. Its
    last c W rows serve a run of c <= steps steps."""
    count, size = hom.shape[:2]
    mapped = np.zeros((count, steps, noise.shape[2], size))
    mapped[:, 0, :, : size - 1] = noise.transpose(0, 2, 1)
    filled, power = 1, hom
    while filled < steps:
        more = min(filled, steps - filled)
        np.matmul(mapped[:, :more], power[:, None], out=mapped[:, filled : filled + more])
        filled += more
        power = power @ power
    return mapped[:, ::-1].reshape(count, -1, size)


def _joint_norms(states, actions) -> np.ndarray:
    """Norms of the stacked (e, u) vectors along the last axis, as
    sqrt(|e|^2 + |u|^2), through :func:`_rescaled`."""
    norms = np.sqrt(np.sum(states * states, axis=-1) + np.sum(actions * actions, axis=-1))
    return _rescaled(norms, states, actions)


def _rescaled(norms, *parts) -> np.ndarray:
    """``norms`` of the vectors ``parts`` stack into along their last axis;
    a norm at inf or below ``_SQUARES_FLOOR`` (0 too) is recomputed on its
    vector over its largest magnitude, unless that vector is 0 or not finite."""
    redo = (norms < _SQUARES_FLOOR) | (norms == math.inf)
    if redo.any():
        lost = np.concatenate([part[redo] for part in parts], axis=-1)
        scale = np.abs(lost).max(axis=-1, keepdims=True)
        with np.errstate(over="ignore", invalid="ignore"):
            again = scale[:, 0] * np.sqrt(np.sum((lost / scale) ** 2, axis=-1))
        norms[redo] = np.where(np.isfinite(again), again, norms[redo])
    return norms


def _power_table(mats, length: int) -> np.ndarray:
    """Powers mats^1 .. mats^length (B x length x D x D, at least one), by
    doubling."""
    table = np.empty((mats.shape[0], max(length, 1)) + mats.shape[1:])
    table[:, 0] = mats
    filled = 1
    while filled < length:
        more = min(filled, length - filled)
        np.matmul(table[:, :more], table[:, filled - 1 : filled],
                  out=table[:, filled : filled + more])
        filled += more
    return table


def _leading_capped(table) -> np.ndarray:
    """Per row of a power table, how many leading powers are finite with
    every entry within ``_POWER_CAP``: the power holding a row's first
    entry past the cap, or NaN, in row-major order."""
    count, length, size = table.shape[:3]
    bad = ~(np.abs(table.reshape(count, -1)) <= _POWER_CAP)
    return np.where(bad.any(axis=1), bad.argmax(axis=1) // (size * size), length)


def classify_empirical(traj: Trajectory) -> EmpiricalVerdict:
    """Classify a rollout by the least-squares slope of log|(e, u)| over the
    trailing half of its samples: the one-row case of :func:`_fit_rows`.

    Diverged trajectories short-circuit to unstable with rate = +inf.
    Trajectories whose trailing norms all sit below the fit floor (including
    the all-zero trajectory) are stable with rate = -inf.
    """
    half = len(traj) // 2
    with np.errstate(over="ignore"):
        tail = _joint_norms(traj.states[None, half:], traj.actions[None, half:])
    label, rate, residual = _fit_rows(traj.times, tail, np.array([traj.diverged]))
    return EmpiricalVerdict(rate=float(rate[0]), label=str(label[0]), residual=float(residual[0]))


def _fit_rows(times, tails, diverged) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The verdicts of rows of runs recorded at ``times``, as the columns
    (label, rate, residual): row r's rate is the least-squares slope of log
    ``tails[r]``, the joint norms of its samples times.size // 2 onward,
    over their times, and its residual the RMS of that line's misfit.
    ``tails`` is overwritten.

    A diverged row is unstable with rate = +inf, whatever its tail holds.
    Samples with a norm below the fit floor are left out of the fit; a row
    with fewer than two left is stable with rate = -inf. Rows whose every
    sample enters the fit are fitted together, each reduction along a row
    as on one run, so a row's verdict does not depend on the others.
    """
    rate = np.where(diverged, math.inf, -math.inf)
    residual = np.zeros(rate.shape)
    if not diverged.all() and times.size < _MIN_STEPS:
        raise ParameterError(
            f"classification needs at least {_MIN_STEPS} recorded samples, "
            f"got {times.size}"
        )
    t = times[times.size // 2 :]
    usable = tails >= _NORM_FLOOR
    whole = ~diverged & usable.all(axis=1)
    for row in np.flatnonzero(~diverged & ~whole):
        mask = usable[row]
        if mask.sum() >= 2:
            (rate[row],), (residual[row],) = _line_fits(t[mask], np.log(tails[row, mask])[None])
    if whole.any():
        # Fit every row in place; a row not fitted whole is log 1 = 0 and dropped.
        tails[~whole] = 1.0
        slope, misfit = _line_fits(t, np.log(tails, out=tails))
        rate[whole], residual[whole] = slope[whole], misfit[whole]
    label = np.where(rate < -RATE_DEADBAND, "stable",
                     np.where(rate > RATE_DEADBAND, "unstable", "marginal"))
    return label, rate, residual


def _line_fits(t, y) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope of each row of y (R x T) against t (T), and the
    RMS residual of each fitted line, through one R x T scratch array.
    Each product and sum is the one of the textbook formula with its
    operands swapped, which IEEE arithmetic rounds the same."""
    centered = t - t.mean()
    y_mean = y.mean(axis=1, keepdims=True)
    work = y - y_mean
    work *= centered
    slope = work.sum(axis=1) / np.sum(centered ** 2)
    np.multiply(slope[:, None], centered, out=work)
    work += y_mean
    np.subtract(y, work, out=work)
    work *= work
    return slope, np.sqrt(work.mean(axis=1))


def full_vs_partial_compare(
    plant: PlantModel,
    policy: ExpertPolicy,
    diffusion: DiffusionParams,
    config: CouplingConfig,
) -> ComparisonReport:
    """Run per-step and inner-loop coupling with identical seeds and
    parameters; report both verdicts and the terminal-state gap."""
    traj_ps = simulate(plant, policy, diffusion, replace(config, mode=CouplingMode.PER_STEP))
    traj_il = simulate(plant, policy, diffusion, replace(config, mode=CouplingMode.INNER_LOOP))
    gap = float(np.linalg.norm(traj_ps.states[-1] - traj_il.states[-1]))
    return ComparisonReport(
        per_step=classify_empirical(traj_ps),
        inner_loop=classify_empirical(traj_il),
        terminal_gap=gap,
    )


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory: header ``t,e_1..e_N,u_1..u_M``, one row per
    recorded sample, 17 significant digits (float round-trip)."""
    n = traj.states.shape[1]
    m = traj.actions.shape[1]
    header = ",".join(
        ["t"] + [f"e_{i + 1}" for i in range(n)] + [f"u_{j + 1}" for j in range(m)]
    )
    return header + "\n" + _textfmt.csv_rows([traj.times, *traj.states.T, *traj.actions.T])
