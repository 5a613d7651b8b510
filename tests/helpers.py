"""Shared draw generators and measurement planners for the test suite.

The rate-fit tests compare simulated decay rates against eigenvalues of the
joint dynamics matrix. The planner below sizes dt and horizon so the fit can
actually resolve the dominant mode: dt small enough for Euler bias and
stiffness, horizon long enough for the slow mode to dominate (real pairs)
or for several oscillation periods to average out (complex pairs), and short
enough that unstable runs do not hit the blow-up bound before a rate is
fitted. Draws whose dominant mode cannot be measured inside that budget
(near-marginal rates, oscillation periods beyond 50 time units) are redrawn.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import stabkit as sk
from stabkit.stability_analyzer import augmented_matrix

MIN_MEASURABLE_RATE = 0.08
MAX_PERIOD = 50.0
MAX_HORIZON = 400.0


def plan_rate_sim(hi: complex, lo: complex):
    """Return (dt, horizon, record_stride) for measuring the dominant rate of
    a 2x2 joint system with eigenvalues ``hi``, ``lo``; None if the draw is
    not measurable at desk scale."""
    rate = hi.real
    if abs(rate) < MIN_MEASURABLE_RATE:
        return None
    lam_max = max(abs(hi), abs(lo))
    dt = min(5e-3, 0.2 / lam_max, 0.025 / max(rate * rate, 1.0))
    horizon = max(6.0, 8.0 / abs(rate))
    if hi.imag != 0.0:
        period = 2.0 * math.pi / abs(hi.imag)
        if period > MAX_PERIOD:
            return None
        if rate > 0.0 and period * rate > 2.0:
            # growing spiral too slow to show 4 rotations before blow-up
            return None
        horizon = max(horizon, 8.0 * period)
    else:
        gap = abs(hi.real - lo.real)
        horizon = max(horizon, 10.0 / max(gap, 0.05))
    if rate > 0.0:
        horizon = min(horizon, 16.0 / rate)
    horizon = min(horizon, MAX_HORIZON)
    steps = int(round(horizon / dt))
    stride = max(1, steps // 4000)
    return dt, horizon, stride


def coupled_eigenvalues(a, b, k, kprime):
    """Eigenvalues of the scalar joint dynamics at effective gain kprime, as
    complex numbers with real parts descending (positive imaginary part
    first on ties)."""
    pair = np.linalg.eigvals(augmented_matrix(a, b, k, kprime)).astype(complex).tolist()
    hi, lo = sorted(pair, key=lambda z: (-z.real, -z.imag))
    return hi, lo


def measure_rate(a, b, k, kprime, dt, horizon, stride, g=1.0, alpha=1.0, e0=1.0):
    """Deterministic per-step rollout and its empirical verdict."""
    sigma = g * math.sqrt(alpha / kprime)
    plant = sk.PlantModel(A=a, B=b, setpoint=[0.0])
    policy = sk.ExpertPolicy(K=k, Sigma=[[sigma * sigma]])
    diffusion = sk.DiffusionParams(g=g, alpha=alpha)
    config = sk.CouplingConfig(
        mode="per-step",
        dt=dt,
        horizon=horizon,
        e0=[e0],
        u0=[0.0],
        record_stride=stride,
    )
    trajectory = sk.simulate(plant, policy, diffusion, config)
    return sk.classify_empirical(trajectory), trajectory


def draw_measurable_scalar_system(rng, *, a_range=(-2.5, 2.5), kprime_range=(0.3, 6.0)):
    """Random (A, B, K, kprime) with well-separated margins and a measurable
    dominant mode; returns (params, eigenvalues, sim plan)."""
    while True:
        a = float(rng.uniform(*a_range))
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        closed_loop = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))  # A - BK
        k = (a - closed_loop) / b
        kprime = float(rng.uniform(*kprime_range))
        if abs(kprime - a) < 0.1:
            continue
        hi, lo = coupled_eigenvalues(a, b, k, kprime)
        plan = plan_rate_sim(hi, lo)
        if plan is None:
            continue
        return (a, b, k, kprime), (hi, lo), plan


def percent_rows(row: str, columns) -> str:
    """One ``row % values`` line per entry of ``columns``, each ended by a
    newline: the rendering the CSV writers made with Python's ``%`` before
    their numbers were formatted in numpy, kept as the byte reference."""
    values = itertools.chain.from_iterable(zip(*(np.asarray(c).tolist() for c in columns)))
    return "\n".join([row] * len(columns[0])) % tuple(values) + "\n"


def percent_trajectory_csv(traj) -> str:
    """``trajectory_to_csv`` as Python's ``%`` wrote it."""
    n, m = traj.states.shape[1], traj.actions.shape[1]
    header = ",".join(["t"] + [f"e_{i + 1}" for i in range(n)] + [f"u_{j + 1}" for j in range(m)])
    row = ",".join(["%.17g"] * (1 + n + m))
    return header + "\n" + percent_rows(row, [traj.times, *traj.states.T, *traj.actions.T])
