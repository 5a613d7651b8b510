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
standard normal draws. One rollout advances a batch of such maps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import matrixkit
from .diffusion_controller import DiffusionParams, RngStream, default_inner_dt
from .errors import DimensionError, ParameterError
from .plant import ExpertPolicy, PlantModel

# A recorded state or action norm beyond BLOWUP_FACTOR * (1 + |e0|) declares
# divergence; non-finite values are flagged the same way rather than thrown.
BLOWUP_FACTOR = 1e9

# Fitted log-norm slopes within this band of zero are classified "marginal".
RATE_DEADBAND = 0.02

# Samples with joint norm below this are excluded from the decay-rate fit.
_NORM_FLOOR = 1e-300

_MIN_STEPS = 10

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
        mode = CouplingMode(self.mode)
        object.__setattr__(self, "mode", mode)
        if not (self.dt > 0.0):
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if not (self.horizon > 0.0):
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        if self.n_steps < _MIN_STEPS:
            raise ParameterError(
                f"horizon/dt = {self.horizon / self.dt:.3g} gives fewer than "
                f"{_MIN_STEPS} steps; such runs are unclassifiable"
            )
        if self.record_stride < 1:
            raise ParameterError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.dt_inner is not None and not (self.dt_inner > 0.0):
            raise ParameterError(f"dt_inner must be > 0, got {self.dt_inner}")
        object.__setattr__(self, "e0", matrixkit.as_vector(self.e0, "e0"))
        object.__setattr__(self, "u0", matrixkit.as_vector(self.u0, "u0"))
        object.__setattr__(self, "seed", int(self.seed))

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

    def joint_norms(self) -> np.ndarray:
        """Euclidean norm of the stacked (e, u) vector per sample."""
        with np.errstate(over="ignore"):
            norms = np.sqrt(
                np.sum(self.states * self.states, axis=1)
                + np.sum(self.actions * self.actions, axis=1)
            )
        if np.isinf(norms).any():
            norms = _rescale_overflow(norms, np.hstack([self.states, self.actions]))
        return norms


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
    n, m = plant.n_states, plant.n_inputs
    if policy.n_states != n or policy.n_actions != m:
        raise DimensionError(
            f"policy K is {policy.n_actions}x{policy.n_states}, plant expects "
            f"{m}x{n}"
        )
    _check_start(config, n, m)
    if diffusion.drift is not None and diffusion.drift.shape[0] != m:
        raise DimensionError(f"drift has length {diffusion.drift.shape[0]}, plant expects {m}")


def _check_start(config: CouplingConfig, n: int, m: int):
    if config.e0.shape[0] != n:
        raise DimensionError(f"e0 has length {config.e0.shape[0]}, plant expects {n}")
    if config.u0.shape[0] != m:
        raise DimensionError(f"u0 has length {config.u0.shape[0]}, plant expects {m}")


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
    return next(_rollout(step_mat[None], step_off[None], None if noise is None else noise[None],
                         [config], *_start(config)))


def simulate_scalar_grid(a, b, k, variance, g, alpha, config: CouplingConfig) -> Iterator[Trajectory]:
    """Deterministic per-step runs of scalar systems given as columns: row i
    is ``simulate`` of the plant (a[i], b[i]) under the policy
    (k[i], variance[i]) and the diffusion (g[i], alpha[i]), with the step
    count, dt, stride and start of ``config``. All rows compile in one call
    and roll out in batches of bounded memory.

    A row's samples match its one-run ``simulate`` up to rounding: a batch
    advances its live rows by the smallest usable power count among them,
    so the last bits depend on which rows share the batch.
    """
    config = replace(config, mode=CouplingMode.PER_STEP)
    _check_start(config, 1, 1)
    step_mat, step_off, _ = _step_maps(
        CouplingMode.PER_STEP, _column(a), _column(b), _column(k), _column(1.0 / variance),
        config.dt, g, alpha,
    )
    # A row holds its records and a table of _BLOCK powers of its 3 x 3
    # homogeneous map, and a batch stops growing once it reaches
    # _BATCH_FLOATS floats.
    row_floats = (config.n_steps // config.record_stride + 2 + _BLOCK * 2) * 3
    rows = max(1, -(-_BATCH_FLOATS // row_floats))
    for first in range(0, step_mat.shape[0], rows):
        maps = step_mat[first : first + rows]
        yield from _rollout(maps, step_off[first : first + rows], None, [config] * len(maps),
                            *_start(config))


def _start(config: CouplingConfig) -> tuple[np.ndarray, float]:
    """The homogeneous start row (e0, u0, 1) of a run and its blow-up bound."""
    z0 = np.concatenate([config.e0, config.u0, [1.0]])
    with np.errstate(over="ignore"):
        norm = _rescale_overflow(np.array([np.linalg.norm(config.e0)]), config.e0[None])
    return z0, BLOWUP_FACTOR * (1.0 + float(norm[0]))


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


def _rollout(step_mat, step_off, noise, configs, z0, blow) -> Iterator[Trajectory]:
    """Roll out a batch of compiled runs of one shape; yield trajectories.

    Row r is the map (step_mat[r], step_off[r], noise[r]) started from the
    homogeneous row z0[r] = (e0, u0, 1) with blow-up bound blow[r];
    ``configs[r]`` gives its step count, stride, dt and seed. z0 and blow may
    be one row and one bound shared by all runs.

    The maps act on homogeneous rows (z, 1), so z M^T + c is one matmul by
    H. Rows advance a block of up to ``_BLOCK`` recorded samples per batched
    matmul, against a table of the powers of P = H^stride built by doubling.
    A noisy row adds its block's draws Xi as Xi T, with T the block-Toeplitz
    map of the noise-mapped powers [G^T, 0] H^m, applied in two factors:
    each sample's draws reach its end through one stride's kicks
    (``_kicks``), and a doubling scan by P, P^2, P^4, ... carries them to
    the later samples. A noiseless row is the zero-width case. A block's
    draws and the kicks fit ``_BATCH_FLOATS``.

    Draw contract: a block reads its draws with ``RngStream.peek``, which
    does not advance the stream, then takes through ``standard_normal``
    exactly the draws of the samples it keeps, up to the one that diverged.
    A seed keeps its draws, in the order ``full_denoise`` takes them, and a
    stopped row draws nothing past its last sample.

    A power or kick is used only while its entries stay within
    ``_POWER_CAP``: an overflowing power would turn an exact zero state into
    NaN. Rows whose first power or kicks pass the cap, and noisy rows whose
    one-stride kicks exceed the budget, advance one recorded sample at a
    time, in chunks of plant steps, drawing each chunk's noise just before it.
    """
    count, dim = step_mat.shape[:2]
    steps, stride, n = configs[0].n_steps, configs[0].record_stride, configs[0].e0.shape[0]
    width = 0 if noise is None else noise.shape[2]
    hom = np.zeros((count, dim + 1, dim + 1))
    hom[:, dim, dim] = 1.0
    hom[:, :dim, :dim], hom[:, dim, :dim] = step_mat.transpose(0, 2, 1), step_off
    z0 = np.broadcast_to(z0, (count, dim + 1))
    blow = np.broadcast_to(blow, (count,))
    full, rem = divmod(steps, stride)
    ks = np.concatenate([[0.0], np.arange(stride, steps + 1, stride), [steps] if rem else []])
    records = np.empty((count, ks.size, dim + 1))
    records[:, 0] = z0
    counts = np.full(count, ks.size)
    diverged = np.zeros(count, dtype=bool)
    rngs = [RngStream(config.seed) for config in configs] if width else []

    def keep(rows, block, first):
        """Stop each row whose samples (block[i] is record first + i) blow
        up; return the mask of rows that keep running."""
        e_norm = _rescale_overflow(np.sqrt(np.sum(block[..., :n] ** 2, axis=-1)), block[..., :n])
        u_norm = _rescale_overflow(np.sqrt(np.sum(block[..., n:dim] ** 2, axis=-1)),
                                   block[..., n:dim])
        bad = ~np.isfinite(block).all(axis=-1) | (np.maximum(e_norm, u_norm) > blow[rows, None])
        hit = bad.any(axis=1)
        counts[rows[hit]] = first + 1 + bad[hit].argmax(axis=1)
        diverged[rows[hit]] = True
        return ~hit

    with np.errstate(over="ignore", invalid="ignore"):
        span = min(stride, steps)
        table = _power_table(np.linalg.matrix_power(hom, span), min(full, _BLOCK))
        last = np.linalg.matrix_power(hom, rem)
        usable = _leading_capped(table)
        stepwise = (usable == 0) | (_leading_capped(last[:, None]) == 0)
        reach = span
        if width:
            # The kicks of up to one sample's steps, and a block's draws, fit
            # the budget; a row whose sample needs more kicks goes stepwise.
            reach = max(1, min(span, _BATCH_FLOATS // (count * width * (dim + 1))))
            kicks = _kicks(hom, noise, reach)
            usable = np.minimum(usable, _BATCH_FLOATS // (count * span * width))
            stepwise |= (reach < span) | ~(np.abs(kicks) <= _POWER_CAP).all(axis=(1, 2))
        # Rows that stopped or run stepwise are carried as zeros.
        live = ~stepwise
        z = np.where(live[:, None], z0, 0.0)
        done = 0
        while live.any() and done < full + (rem > 0):
            main = done < full
            size = int(min(full - done, usable[live].min())) if main else 1
            block = np.matmul(z[:, None, None], table[:, :size] if main else last[:, None])[:, :, 0]
            rows = np.flatnonzero(live)
            if width:
                # Each sample's own draws, then those of earlier samples
                # carried forward by a doubling scan over the powers.
                per = (span if main else rem) * width
                xi = np.zeros((count, size, per))
                for row in rows:
                    xi[row] = rngs[row].peek(size * per).reshape(size, per)
                kicked = np.matmul(xi, kicks[:, kicks.shape[1] - per :])
                lag = 1
                while lag < size:
                    kicked[:, lag:] += np.matmul(kicked[:, :-lag], table[:, lag - 1])
                    lag *= 2
                block += kicked
            records[:, 1 + done : 1 + done + size] = block
            live[rows[~keep(rows, block[rows], 1 + done)]] = False
            if width:
                for row in rows:  # take the draws of the samples kept
                    rngs[row].standard_normal(min(size, counts[row] - 1 - done) * per)
            z = np.where(live[:, None], block[:, -1], 0.0)
            done += size

        rows = np.flatnonzero(stepwise)
        chunk = min(reach, _BATCH_FLOATS // max(1, rows.size * (dim + 1) ** 2))
        powers = _power_table(hom[rows], chunk)
        chunk = max(1, int(_leading_capped(powers).min(initial=chunk)))
        if width:
            # Over a chunk of c steps: z <- z H^c + sum_i xi_i G^T H^(c-1-i).
            kicks = kicks[rows]
            streams = [rngs[r] for r in rows]
        z = z0[rows, None]
        for record in range(1, ks.size if rows.size else 1):
            left = stride if record <= full else rem
            while left:
                size = min(left, chunk)
                z = np.matmul(z, powers[:, size - 1])
                if width:
                    draws = np.array([rng.standard_normal(size * width) for rng in streams])
                    z += np.matmul(draws[:, None], kicks[:, kicks.shape[1] - size * width :])
                left -= size
            records[rows, record] = z[:, 0]
            # One sum of squares below the smallest bound clears every row; a
            # sum that overflows goes to the per-row check.
            if not np.vdot(z, z) < blow[rows].min() ** 2:
                running = keep(rows, z, record)
                rows, z, powers = rows[running], z[running], powers[running]
                if width:
                    kicks = kicks[running]
                    streams = [rng for rng, go in zip(streams, running) if go]
                if not rows.size:
                    break

    for row, config in enumerate(configs):
        kept = counts[row]
        yield Trajectory(ks[:kept] * config.dt, records[row, :kept, :n].copy(),
                         records[row, :kept, n:dim].copy(), config, bool(diverged[row]))


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


def _rescale_overflow(norms, vectors) -> np.ndarray:
    """``norms`` of ``vectors`` (along their last axis), with each norm that
    overflowed to inf from a finite vector recomputed on the vector divided
    by its largest magnitude, whose squares do not overflow."""
    over = np.isinf(norms)
    if over.any():
        over &= np.isfinite(vectors).all(axis=-1)
        big = vectors[over]
        scale = np.abs(big).max(axis=-1, keepdims=True)
        norms[over] = scale[:, 0] * np.sqrt(np.sum((big / scale) ** 2, axis=-1))
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
    every entry within ``_POWER_CAP``."""
    ok = (table.max(axis=(2, 3)) <= _POWER_CAP) & (table.min(axis=(2, 3)) >= -_POWER_CAP)
    return np.where(ok.all(axis=1), ok.shape[1], ok.argmin(axis=1))


def classify_empirical(traj: Trajectory) -> EmpiricalVerdict:
    """Classify a rollout by the least-squares slope of log|(e, u)| over the
    trailing half of its samples.

    Diverged trajectories short-circuit to unstable with rate = +inf.
    Trajectories whose trailing norms all sit below the fit floor (including
    the all-zero trajectory) are stable with rate = -inf.
    """
    if traj.diverged:
        return EmpiricalVerdict(rate=math.inf, label="unstable", residual=0.0)
    n_samples = len(traj)
    if n_samples < _MIN_STEPS:
        raise ParameterError(
            f"classification needs at least {_MIN_STEPS} recorded samples, "
            f"got {n_samples}"
        )
    norms = traj.joint_norms()
    start = n_samples // 2
    t_tail = traj.times[start:]
    n_tail = norms[start:]
    usable = n_tail >= _NORM_FLOOR
    if int(usable.sum()) < 2:
        return EmpiricalVerdict(rate=-math.inf, label="stable", residual=0.0)
    t_fit = t_tail[usable]
    y_fit = np.log(n_tail[usable])
    t_mean = float(t_fit.mean())
    y_mean = float(y_fit.mean())
    t_var = float(np.sum((t_fit - t_mean) ** 2))
    slope = float(np.sum((t_fit - t_mean) * (y_fit - y_mean)) / t_var)
    resid = y_fit - (y_mean + slope * (t_fit - t_mean))
    residual = float(np.sqrt(np.mean(resid * resid)))
    if slope < -RATE_DEADBAND:
        label = "stable"
    elif slope > RATE_DEADBAND:
        label = "unstable"
    else:
        label = "marginal"
    return EmpiricalVerdict(rate=slope, label=label, residual=residual)


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
    row = ",".join(["%.17g"] * (1 + n + m))
    values = np.column_stack([traj.times, traj.states, traj.actions]).ravel().tolist()
    return header + "\n" + "\n".join([row] * len(traj)) % tuple(values) + "\n"
