"""Score function of the Gaussian expert and the time-rescaled denoising step.

The controller's action dynamics are the reverse-time denoising update of a
score-based generative model fit to the expert. With time-scale ratio
``alpha`` between diffusion time and plant time, one plant-time step of the
action reads

    u' = u + (c + g^2 * alpha * score(u)) * dt  [+ sqrt(alpha) * g * sqrt(dt) * xi]

where ``c`` is an optional constant drift expressed in action units per unit
plant time, and xi is standard normal per coordinate when stochastic. The
drift only translates the solution: the deterministic fixed point sits at
u = -K e + Sigma c / (g^2 alpha), and the contraction rate is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .errors import ParameterError
from .plant import ExpertPolicy

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class DiffusionParams:
    """Knobs of the denoising controller.

    g: diffusion coefficient (constant, > 0).
    alpha: time-scale ratio d(tau)/dt between diffusion and plant time (> 0).
    drift: optional constant drift vector, action units per unit plant time.
    stochastic: include the Brownian term of the reverse-time dynamics.
    inner_steps: number of denoising updates used by full_denoise.
    """

    g: float
    alpha: float
    drift: np.ndarray | None = None
    stochastic: bool = False
    inner_steps: int = 25

    def __post_init__(self):
        object.__setattr__(self, "g", matrixkit.as_real(self.g, "g"))
        object.__setattr__(self, "alpha", matrixkit.as_real(self.alpha, "alpha"))
        object.__setattr__(self, "inner_steps", matrixkit.as_whole(self.inner_steps, "inner_steps"))
        if not isinstance(self.stochastic, bool):
            raise ParameterError(f"stochastic must be true or false, got {self.stochastic!r}")
        if not (self.g > 0.0):
            raise ParameterError(f"diffusion coefficient g must be > 0, got {self.g}")
        if not (self.alpha > 0.0):
            raise ParameterError(f"time-scale ratio alpha must be > 0, got {self.alpha}")
        if self.inner_steps < 1:
            raise ParameterError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.drift is not None:
            object.__setattr__(
                self, "drift", matrixkit.as_vector(self.drift, "drift")
            )


class RngStream:
    """Seeded, single-owner stream of standard normal draws.

    Identical seeds yield bit-identical draws, however the takes split them.
    One stream per trajectory; never share a stream between concurrent workers.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _SEED_MASK
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def score(policy: ExpertPolicy, e, u) -> np.ndarray:
    """Score of the Gaussian expert at action u: -Sigma^{-1} (u + K e).

    Vanishes exactly at the expert action u = -K e.
    """
    e = matrixkit.as_vector(e, "error state e")
    return _score(policy, e, matrixkit.as_vector(u, "action u"))


def _score(policy: ExpertPolicy, e: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`score` of float vectors; DimensionError unless their lengths
    match the policy."""
    matrixkit._check_length(e, "e", "policy", policy.n_states)
    matrixkit._check_length(u, "u", "policy", policy.n_actions)
    return -(policy.sigma_inv @ (u + policy.K @ e))


def denoise_step(
    policy: ExpertPolicy,
    params: DiffusionParams,
    e,
    u,
    dt: float,
    rng: RngStream | None = None,
) -> np.ndarray:
    """One denoising update over a plant-time increment ``dt``.

    Deterministic part: u + (c + g^2 alpha * score(u)) dt. When stochastic,
    adds sqrt(alpha) g sqrt(dt) xi with xi standard normal per coordinate,
    so the increment variance is alpha g^2 dt per coordinate.
    """
    matrixkit._check_positive(dt=dt)
    u = matrixkit.as_vector(u, "action u")
    s = _score(policy, matrixkit.as_vector(e, "error state e"), u)
    gain = params.g * params.g * params.alpha
    if params.drift is not None:
        matrixkit._check_length(params.drift, "drift", "policy", policy.n_actions)
        u_next = u + (params.drift + gain * s) * dt
    else:
        u_next = u + gain * s * dt
    if params.stochastic:
        if rng is None:
            raise ParameterError("stochastic denoise_step requires an RngStream")
        u_next = u_next + np.sqrt(params.alpha) * params.g * np.sqrt(dt) * rng.standard_normal(
            u.shape[0]
        )
    return u_next


def default_inner_dt(params: DiffusionParams, dt: float) -> float:
    """Diffusion-time inner step consuming one plant step's worth of
    diffusion time (alpha * dt) across ``inner_steps`` updates."""
    return dt * params.alpha / params.inner_steps


def full_denoise(
    policy: ExpertPolicy,
    params: DiffusionParams,
    e,
    dt_inner: float,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Run the denoising process to completion with the plant state frozen.

    The action starts from a standard normal draw (zero when deterministic)
    and takes ``inner_steps`` updates of diffusion-time size ``dt_inner``.
    With stochastic=False and enough steps the result approaches -K e
    geometrically.
    """
    matrixkit._check_positive(dt_inner=dt_inner)
    m = policy.n_actions
    if params.stochastic:
        if rng is None:
            raise ParameterError("stochastic full_denoise requires an RngStream")
        u = rng.standard_normal(m)
    else:
        u = np.zeros(m)
    dt_equiv = dt_inner / params.alpha
    for _ in range(params.inner_steps):
        u = denoise_step(policy, params, e, u, dt_equiv, rng)
    return u
