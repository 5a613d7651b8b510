"""Linear time-invariant plant model and the linear feedback expert.

All dynamics in this package run in error coordinates e = x - setpoint,
so the setpoint is an equilibrium by construction; reports and plots
translate back to x = e + setpoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .errors import DimensionError


@dataclass(frozen=True)
class PlantModel:
    """Continuous-time LTI plant e' = A e + B u with a setpoint.

    A is N x N (units 1/time), B is N x M, setpoint has length N (zeros
    when not given).
    """

    A: np.ndarray
    B: np.ndarray
    setpoint: np.ndarray | None = None

    def __post_init__(self):
        a = matrixkit.require_square(self.A, "plant A")
        b = matrixkit.as_matrix(self.B, "plant B")
        if self.setpoint is None:
            r = np.zeros(a.shape[0])
        else:
            r = matrixkit.as_vector(self.setpoint, "plant setpoint")
        if b.shape[0] != a.shape[0]:
            raise DimensionError(
                f"plant B must have {a.shape[0]} rows to match A, got {b.shape[0]}"
            )
        if r.shape[0] != a.shape[0]:
            raise DimensionError(
                f"plant setpoint must have length {a.shape[0]}, got {r.shape[0]}"
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "setpoint", r)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ExpertPolicy:
    """Linear feedback expert u = -K e with demonstration covariance Sigma.

    K is M x N; Sigma is M x M and must be symmetric positive definite.
    """

    K: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        k = matrixkit.as_matrix(self.K, "policy K")
        sigma = matrixkit.check_symmetric(self.Sigma, "policy Sigma")
        if sigma.shape[0] != k.shape[0]:
            raise DimensionError(
                f"policy Sigma must be {k.shape[0]}x{k.shape[0]} to match K, "
                f"got {sigma.shape}"
            )
        matrixkit._require_positive_definite(sigma, "policy Sigma")
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "Sigma", sigma)

    @functools.cached_property
    def sigma_inv(self) -> np.ndarray:
        """Sigma^{-1}, computed on first use and kept for the policy's life."""
        return np.linalg.inv(matrixkit._nonsingular(self.Sigma))

    @property
    def n_actions(self) -> int:
        return self.K.shape[0]

    @property
    def n_states(self) -> int:
        return self.K.shape[1]


def _check_fit(b: np.ndarray, k: np.ndarray):
    """DimensionError unless the gain ``k`` is M x N for a plant whose input
    matrix ``b`` is N x M: the policy fits the plant."""
    n, m = b.shape
    if k.shape != (m, n):
        raise DimensionError(f"policy K is {k.shape[0]}x{k.shape[1]}, plant expects {m}x{n}")


def plant_derivative(plant: PlantModel, e, u) -> np.ndarray:
    """Error-state derivative A e + B u."""
    e = matrixkit.as_vector(e, "error state e")
    u = matrixkit.as_vector(u, "action u")
    matrixkit._check_length(e, "e", "plant", plant.n_states)
    matrixkit._check_length(u, "u", "plant", plant.n_inputs)
    return plant.A @ e + plant.B @ u


def expert_action(policy: ExpertPolicy, e) -> np.ndarray:
    """Deterministic expert action -K e."""
    e = matrixkit.as_vector(e, "error state e")
    matrixkit._check_length(e, "e", "policy", policy.n_states)
    return -(policy.K @ e)
