"""Seeded request generators for the three benchmark workloads.

Every workload is a pool of requests drawn from a fixed stratified mix: the
seed changes parameter values, matrices, initial states and log contents,
but never how many requests of each kind a pass holds or how many plant
steps, grid cells or records each one carries. That keeps the cost mix the
same from seed to seed, so latency quantiles are comparable across seeds
while the inputs themselves differ.

A request is one or more ``stab`` command lines run back to back; the
program sees only the generated config and CSV files named on them. The
``spec`` of a request carries what the reference check needs and is never
shown to the program.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Seed of the warm-up inputs: set-up time must not depend on the workload seed.
WARMUP_SEED = 12345


class Pool:
    """Requests of one workload and the files they read and write."""

    def __init__(self, work_dir: str):
        self.inputs = os.path.join(work_dir, "inputs")
        self.outputs = os.path.join(work_dir, "outputs")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.outputs, exist_ok=True)
        self.requests: list[dict] = []
        self.warmup: list[dict] = []

    def input_path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def output_path(self, name: str) -> str:
        return os.path.join(self.outputs, name)

    def write_config(self, name: str, doc: dict) -> str:
        path = self.input_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
        return path

    def add(self, kind: str, calls: list[list[str]], outputs: list[str], spec: dict,
            warmup: bool = False):
        target = self.warmup if warmup else self.requests
        target.append(
            {"id": len(target), "kind": kind, "calls": calls, "outputs": outputs,
             "spec": spec}
        )


def _tolist(value):
    return np.asarray(value, dtype=float).tolist()


def _config(a, b, k, sigma_mat, g, alpha, stochastic=False, coupling=None):
    doc = {
        "plant": {"A": _tolist(a), "B": _tolist(b)},
        "policy": {"K": _tolist(k), "Sigma": _tolist(sigma_mat)},
        "diffusion": {"g": float(g), "alpha": float(alpha), "stochastic": bool(stochastic)},
    }
    if coupling is not None:
        doc["coupling"] = coupling
    return doc


# ---------------------------------------------------------------- simulate-mix

# (dimension, mode, stochastic) -> {stride: plant steps}. Stride 1 records
# every step (CSV-heavy); the coarse stride records rarely (compute-heavy).
# Generic inner-loop costs ~1.5-2 ms per plant step, ~100x the other modes,
# so it gets horizons of tens of steps and forms the latency tail.
_SIM_STEPS = {
    "fast": {1: 3000, 25: 25000},  # scalar deterministic oracle / per-step
    "fast-inner": {1: 1500, 10: 3000},  # scalar deterministic inner-loop
    "generic": {1: 1500, 20: 6000},  # stochastic or 4-D oracle / per-step
    "generic-inner": {1: 40, 4: 80},  # stochastic or 4-D inner-loop
}

_MODES = ("expert-oracle", "per-step", "inner-loop")


def _sim_family(dim: int, mode: str, stochastic: bool) -> str:
    generic = dim > 1 or stochastic
    inner = mode == "inner-loop"
    if generic:
        return "generic-inner" if inner else "generic"
    return "fast-inner" if inner else "fast"


def _plant_nd(rng, dim: int, closed_loop_rate: float):
    """Plant (A, B) and gain K with A - B K = -(rate I + skew)."""
    a = rng.normal(0.0, 0.6 / np.sqrt(dim), (dim, dim)) + rng.uniform(-0.3, 0.8) * np.eye(dim)
    b = np.eye(dim) + rng.normal(0.0, 0.15 / np.sqrt(dim), (dim, dim))
    skew = rng.normal(0.0, 0.3, (dim, dim))
    skew = 0.5 * (skew - skew.T)
    k = np.linalg.solve(b, a + closed_loop_rate * np.eye(dim) + skew)
    return a, b, k


def _covariance(rng, dim: int, sigma: float):
    """SPD covariance with standard deviations around ``sigma``."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    scales = sigma * rng.uniform(0.8, 1.25, dim)
    cov = (q * scales**2) @ q.T
    return 0.5 * (cov + cov.T)


def _sim_request(rng, dim, mode, stochastic, stride, variant):
    """One simulate-mix config. ``variant`` 'a' is a regular draw; 'b' is the
    mode's known-defect or unstable draw (kept on purpose, see README)."""
    steps = _SIM_STEPS[_sim_family(dim, mode, stochastic)][stride]
    inner = mode == "inner-loop"
    horizon = rng.uniform(0.8, 1.6) if inner and (dim > 1 or stochastic) else rng.uniform(8.0, 12.0)
    dt = horizon / steps
    g = rng.uniform(0.7, 1.5)
    alpha = rng.uniform(0.5, 2.0)
    unstable = variant == "b" and mode == "expert-oracle"
    rate = rng.uniform(-1.2, -0.4) if unstable else rng.uniform(0.5, 2.5)
    if dim == 1:
        a_val = rng.uniform(-0.5, 2.0)
        b_val = rng.uniform(0.5, 1.5)
        a, b = np.array([[a_val]]), np.array([[b_val]])
        k = np.array([[(a_val + rate) / b_val]])
    else:
        a, b, k = _plant_nd(rng, dim, rate)
    # Effective gain K' = g^2 alpha / sigma^2: moderate, except the per-step
    # 'b' draw puts K' * dt in (2.5, 4), where explicit Euler diverges
    # although the continuous loop is stable.
    if variant == "b" and mode == "per-step" and not stochastic:
        kprime = rng.uniform(2.5, 4.0) / dt
    else:
        kprime = rng.uniform(max(2.0, float(np.max(np.linalg.eigvals(a).real)) + 1.5), 12.0)
        kprime = min(kprime, 0.5 / dt)
    sigma = g * np.sqrt(alpha / kprime)
    cov = _covariance(rng, dim, sigma) if dim > 1 else np.array([[sigma * sigma]])
    e0 = rng.uniform(0.5, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
    coupling = {
        "mode": mode,
        "dt": dt,
        "horizon": horizon,
        "e0": e0.tolist(),
        "u0": rng.normal(0.0, 0.2, dim).tolist(),
        "seed": int(rng.integers(0, 2**31)),
        "record_stride": stride,
    }
    if inner and variant == "a":
        # Converging inner loop: 25 updates each contracting by (1 - c).
        min_var = float(np.min(np.linalg.eigvalsh(cov)))
        coupling["dt_inner"] = rng.uniform(0.1, 0.3) * min_var / (g * g)
    # Inner-loop 'b' keeps the default dt_inner = dt * alpha / inner_steps.
    return _config(a, b, k, cov, g, alpha, stochastic, coupling), steps


def build_simulate_mix(pool: Pool, rng: np.random.Generator):
    for dim in (1, 4):
        for mode in _MODES:
            for stochastic in (False, True):
                family = _sim_family(dim, mode, stochastic)
                for stride in _SIM_STEPS[family]:
                    for variant in ("a", "b"):
                        doc, steps = _sim_request(rng, dim, mode, stochastic, stride, variant)
                        noise = "stoch" if stochastic else "det"
                        _add_sim(pool, doc, steps, f"{dim}d-{mode}-{noise}-s{stride}-{variant}")
    order = rng.permutation(len(pool.requests))
    pool.requests = [dict(pool.requests[i], id=j) for j, i in enumerate(order)]
    warm_rng = np.random.default_rng(WARMUP_SEED)
    doc, steps = _sim_request(warm_rng, 1, "per-step", False, 1, "a")
    _add_sim(pool, doc, steps, "warmup", warmup=True)


def _add_sim(pool: Pool, doc: dict, steps: int, kind: str, warmup: bool = False):
    tag = f"w{len(pool.warmup)}" if warmup else f"r{len(pool.requests)}"
    cfg = pool.write_config(f"{tag}.json", doc)
    out = pool.output_path(f"{tag}.csv")
    pool.add(
        kind,
        [["simulate", "-c", cfg, "-o", out], ["analyze", "-c", cfg]],
        [out],
        {"type": "simulate", "config": doc, "steps": steps, "csv": out},
        warmup=warmup,
    )


# ---------------------------------------------------------------- sweep-region

_EMPIRICAL_AXES = (("A", "kprime"), ("K", "sigma"), ("A", "K"), ("B", "g"),
                   ("alpha", "A"), ("kprime", "B"))
_EMPIRICAL_GRID = 12  # cells per axis of an --empirical grid
_EMPIRICAL_STEPS = 800  # per-step plant steps per empirical cell
_ANALYTIC_GRID = 64
_PHASE_STEPS = 1500


# Axis extents are fixed; the seed moves a grid's base point. The share of
# cells that diverge early, and with it a grid's cost, is then the same for
# every seed.
_AXIS_RANGES = {"A": (-0.5, 2.5), "B": (0.4, 4.0), "K": (0.4, 4.0), "kprime": (0.5, 30.0),
                "sigma": (0.2, 1.5), "g": (0.4, 2.0), "alpha": (0.4, 2.0)}


def _axis_range(name: str, dt: float | None = None):
    lo, hi = _AXIS_RANGES[name]
    if name == "kprime" and dt is not None:
        hi = 3.0 / dt  # a third of the kprime values lie past K' dt = 2: Euler diverges
    return lo, hi


def _scalar_base(rng):
    a = rng.uniform(-0.5, 2.0)
    b = rng.uniform(0.5, 1.5)
    k = (a + rng.uniform(0.3, 2.0)) / b
    g = rng.uniform(0.7, 1.5)
    alpha = rng.uniform(0.5, 2.0)
    sigma = g * np.sqrt(alpha / rng.uniform(max(a, 0.0) + 0.5, 10.0))
    return a, b, k, sigma, g, alpha


def _fmt_axis(name, lo, hi, steps):
    return f"{name}:{lo!r}:{hi!r}:{steps}"


def _add_sweep(pool: Pool, rng, empirical: bool, pair, warmup=False):
    a, b, k, sigma, g, alpha = _scalar_base(rng)
    grid = _EMPIRICAL_GRID if empirical else _ANALYTIC_GRID
    coupling = None
    dt = None
    if empirical:
        horizon = rng.uniform(8.0, 12.0)
        dt = horizon / _EMPIRICAL_STEPS
        coupling = {"mode": "per-step", "dt": dt, "horizon": horizon,
                    "e0": [float(rng.uniform(0.5, 2.0))], "u0": [0.0],
                    "seed": int(rng.integers(0, 2**31)), "record_stride": 4}
    doc = _config([[a]], [[b]], [[k]], [[sigma * sigma]], g, alpha, False, coupling)
    axes = []
    for name in pair:
        lo, hi = _axis_range(name, dt if empirical else None)
        axes.append((name, lo, hi, grid))
    tag = f"w{len(pool.warmup)}" if warmup else f"r{len(pool.requests)}"
    cfg = pool.write_config(f"{tag}.json", doc)
    out = pool.output_path(f"{tag}.csv")
    svg = pool.output_path(f"{tag}.svg")
    argv = ["sweep", "-c", cfg, "--axis1", _fmt_axis(*axes[0]), "--axis2", _fmt_axis(*axes[1]),
            "-o", out, "--svg", svg, "--jobs", "1"]
    if empirical:
        argv.append("--empirical")
    pool.add("sweep-empirical" if empirical else "sweep-analytic", [argv], [out, svg],
             {"type": "sweep", "config": doc, "axes": axes, "empirical": empirical,
              "csv": out, "svg": svg},
             warmup=warmup)


def _add_phase(pool: Pool, rng):
    a, b, k, sigma, g, alpha = _scalar_base(rng)
    horizon = rng.uniform(6.0, 10.0)
    dt = horizon / _PHASE_STEPS
    coupling = {"mode": "per-step", "dt": dt, "horizon": horizon,
                "e0": [float(rng.uniform(0.5, 2.0))], "u0": [0.0],
                "seed": int(rng.integers(0, 2**31))}
    doc = _config([[a]], [[b]], [[k]], [[sigma * sigma]], g, alpha, False, coupling)
    kprimes = sorted(float(x) for x in rng.uniform(0.3, 12.0, 3))
    tag = f"r{len(pool.requests)}"
    cfg = pool.write_config(f"{tag}.json", doc)
    out = pool.output_path(f"{tag}.csv")
    svg = pool.output_path(f"{tag}.svg")
    argv = ["phase-plane", "-c", cfg, "--kprime", ",".join(repr(x) for x in kprimes),
            "-o", out, "--svg", svg]
    pool.add("phase-plane", [argv], [out, svg],
             {"type": "phase", "config": doc, "kprimes": kprimes, "steps": _PHASE_STEPS,
              "csv": out, "svg": svg})


def build_sweep_region(pool: Pool, rng: np.random.Generator):
    for i in range(12):
        _add_sweep(pool, rng, True, _EMPIRICAL_AXES[i % len(_EMPIRICAL_AXES)])
    for i in range(6):
        _add_sweep(pool, rng, False, _EMPIRICAL_AXES[(i + 3) % len(_EMPIRICAL_AXES)])
    for _ in range(8):
        _add_phase(pool, rng)
    order = rng.permutation(len(pool.requests))
    pool.requests = [dict(pool.requests[i], id=j) for j, i in enumerate(order)]
    _add_sweep(pool, np.random.default_rng(WARMUP_SEED), False, ("A", "kprime"), warmup=True)


# ---------------------------------------------------------------- analyze-gate

# Requests per pass by dimension. The many N=4 requests put the median
# inside one cluster of cheap, seed-insensitive analyze calls; N=8/16 cost
# depends on how many Jacobi sweeps a matrix needs, so they sit away from it.
_ANALYZE_COUNTS = {1: 5, 2: 5, 4: 16, 8: 5, 16: 3}

# (dimension, case, records). 'pass' and 'fail' logs have margins far from
# the gate threshold; 'rankdef' logs repeat a state column exactly (exit 2);
# 'illcond' logs have cond(E) ~ 1e4-1e5, where the normal equations lose
# accuracy (ROADMAP item 3). The six largest logs are all 4-D with 10k-20k
# records, so the 90th percentile falls among logs whose cost is set by
# their size alone.
_LOGS = (
    (1, "pass", 2000), (1, "pass", 5000), (1, "fail", 1000), (1, "fail", 3000),
    (1, "rankdef", 2000),
    (4, "fail", 2000), (4, "rankdef", 3000), (4, "pass", 4000),
    (4, "pass", 10000), (4, "fail", 10000), (4, "illcond", 10000), (4, "illcond", 10000),
    (4, "pass", 12000), (4, "pass", 20000),
)


def _analyze_request(pool: Pool, rng, dim: int, warmup=False):
    stable_loop = rng.random() < 0.75
    rate = rng.uniform(0.3, 2.0) if stable_loop else rng.uniform(-1.0, -0.2)
    a, b, k = _plant_nd(rng, dim, rate)
    g, alpha = rng.uniform(0.7, 1.5), rng.uniform(0.5, 2.0)
    lam = float(np.max(np.linalg.eigvalsh(0.5 * (a + a.T))))
    # Precision g^2 alpha / sigma^2 lands on either side of lam_max(sym A).
    kprime = max(0.2, lam + rng.uniform(-1.0, 4.0))
    sigma = g * np.sqrt(alpha / kprime)
    cov = _covariance(rng, dim, sigma) if dim > 1 else np.array([[sigma * sigma]])
    doc = _config(a, b, k, cov, g, alpha)
    tag = f"w{len(pool.warmup)}" if warmup else f"r{len(pool.requests)}"
    cfg = pool.write_config(f"{tag}.json", doc)
    pool.add(f"analyze-n{dim}", [["analyze", "-c", cfg]], [],
             {"type": "analyze", "config": doc}, warmup=warmup)


def _demo_log(rng, dim: int, case: str, records: int):
    """Plant config and demonstration matrix (records x 2*dim)."""
    g, alpha = rng.uniform(0.8, 1.3), rng.uniform(0.8, 1.5)
    if dim == 1:
        a = np.array([[rng.uniform(0.2, 1.5)]])
        b = np.array([[rng.uniform(0.5, 1.5)]])
    else:
        a = rng.normal(0.0, 0.2, (dim, dim)) + rng.uniform(0.1, 0.5) * np.eye(dim)
        b = np.eye(dim) + rng.normal(0.0, 0.1, (dim, dim))
    lam = float(np.max(np.linalg.eigvalsh(0.5 * (a + a.T))))
    # 'pass': stable loop and demo spread well inside g sqrt(alpha / lam);
    # 'fail': spread three times past it.
    sigma_star = g * np.sqrt(alpha / lam)
    sigma = sigma_star * (rng.uniform(0.1, 0.3) if case != "fail" else rng.uniform(3.0, 5.0))
    k = np.linalg.solve(b, a + rng.uniform(1.0, 3.0) * np.eye(dim))
    states = rng.normal(0.0, 1.0, (records, dim))
    if case == "rankdef":
        if dim == 1:
            states[:] = 0.0
        else:
            states[:, -1] = 2.0 * states[:, 0]
    elif case == "illcond":
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scales = np.ones(dim)
        scales[-1] = 10.0 ** -rng.uniform(4.0, 5.0)
        states = (states * scales) @ q.T
    noise = rng.normal(0.0, sigma, (records, dim))
    actions = -(states @ k.T) + noise
    doc = {"plant": {"A": a.tolist(), "B": b.tolist()},
           "diffusion": {"g": float(g), "alpha": float(alpha)}}
    return doc, np.hstack([states, actions])


def _write_demos(path: str, dim: int, data: np.ndarray):
    header = ",".join([f"e_{i + 1}" for i in range(dim)] + [f"u_{i + 1}" for i in range(dim)])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def _add_log(pool: Pool, rng, dim, case, records, warmup=False):
    doc, data = _demo_log(rng, dim, case, records)
    tag = f"w{len(pool.warmup)}" if warmup else f"r{len(pool.requests)}"
    cfg = pool.write_config(f"{tag}.json", doc)
    demos = pool.input_path(f"{tag}.csv")
    _write_demos(demos, dim, data)
    pool.add(f"dataset-{case}-n{dim}", [["dataset-check", "-d", demos, "-c", cfg]], [],
             {"type": "dataset", "config": doc, "demos": demos, "case": case,
              "records": records, "dim": dim}, warmup=warmup)


def build_analyze_gate(pool: Pool, rng: np.random.Generator):
    for dim, count in _ANALYZE_COUNTS.items():
        for _ in range(count):
            _analyze_request(pool, rng, dim)
    for dim, case, records in _LOGS:
        _add_log(pool, rng, dim, case, records)
    order = rng.permutation(len(pool.requests))
    pool.requests = [dict(pool.requests[i], id=j) for j, i in enumerate(order)]
    warm = np.random.default_rng(WARMUP_SEED)
    _analyze_request(pool, warm, 2, warmup=True)
    _add_log(pool, warm, 1, "pass", 500, warmup=True)


BUILDERS = {
    "simulate-mix": build_simulate_mix,
    "sweep-region": build_sweep_region,
    "analyze-gate": build_analyze_gate,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, work_dir: str) -> Pool:
    """Generate the request pool of ``workload`` from ``seed`` under ``work_dir``."""
    pool = Pool(work_dir)
    BUILDERS[workload](pool, np.random.default_rng(seed))
    return pool
