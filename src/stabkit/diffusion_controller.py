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
from .errors import DimensionError, ParameterError
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

    Identical seeds yield bit-identical sample sequences. One stream per
    trajectory; never share a stream between concurrent workers.
    ``peek(size)`` returns the draws ``standard_normal(size)`` would
    return next, without taking them.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _SEED_MASK
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._shadow = None

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def peek(self, size: int) -> np.ndarray:
        """The next ``size`` draws of ``standard_normal``, read from a copy of
        the stream's state: the stream itself does not advance."""
        if self._shadow is None:
            self._shadow = np.random.Generator(np.random.PCG64(0))
        self._shadow.bit_generator.state = self._gen.bit_generator.state
        return self._shadow.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def score(policy: ExpertPolicy, e, u) -> np.ndarray:
    """Score of the Gaussian expert at action u: -Sigma^{-1} (u + K e).

    Vanishes exactly at the expert action u = -K e.
    """
    e = matrixkit.as_vector(e, "error state e")
    u = matrixkit.as_vector(u, "action u")
    if e.shape[0] != policy.n_states:
        raise DimensionError(
            f"e has length {e.shape[0]}, policy expects {policy.n_states}"
        )
    if u.shape[0] != policy.n_actions:
        raise DimensionError(
            f"u has length {u.shape[0]}, policy expects {policy.n_actions}"
        )
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
    if not (dt > 0.0):
        raise ParameterError(f"dt must be > 0, got {dt}")
    u = matrixkit.as_vector(u, "action u")
    s = score(policy, e, u)
    gain = params.g * params.g * params.alpha
    if params.drift is not None:
        if params.drift.shape[0] != u.shape[0]:
            raise DimensionError(
                f"drift has length {params.drift.shape[0]}, expected {u.shape[0]}"
            )
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
    if not (dt_inner > 0.0):
        raise ParameterError(f"dt_inner must be > 0, got {dt_inner}")
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
