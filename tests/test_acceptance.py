"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria use fixed seeds; every tolerance is stated
inline next to its assertion.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import stabkit as sk
from stabkit import cli
from stabkit.matrixkit import _symmetric
from helpers import (
    coupled_eigenvalues,
    draw_measurable_scalar_system,
    measure_rate,
    plan_rate_sim,
)

import json


def report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(map(str, failures[:10]))


def test_criterion_1_gain_boundary():
    """Per-step coupling flips stable/unstable exactly where the effective
    gain crosses the plant response (K' = A = 2)."""
    started = time.monotonic()
    failures = []
    a, b, k = 2.0, 1.0, 3.0
    plant = sk.PlantModel(A=a, B=b, setpoint=[0.0])
    diffusion = sk.DiffusionParams(g=1.0, alpha=1.0, stochastic=False)
    config = sk.CouplingConfig(
        mode="per-step", dt=1e-3, horizon=20.0, e0=[5.0], u0=[0.0]
    )
    for kprime, expected in [
        (2.5, "stable"), (3.0, "stable"), (10.0, "stable"),
        (0.5, "unstable"), (1.0, "unstable"), (1.5, "unstable"),
    ]:
        sigma = math.sqrt(1.0 / kprime)
        policy = sk.ExpertPolicy(K=k, Sigma=[[sigma * sigma]])
        verdict = sk.classify_empirical(sk.simulate(plant, policy, diffusion, config))
        if verdict.label != expected:
            failures.append(f"empirical K'={kprime}: {verdict.label} != {expected}")
        analytic = sk.analytic_1d(a, b, k, sigma, 1.0, 1.0)
        if analytic.label != expected:
            failures.append(f"analytic K'={kprime}: {analytic.label} != {expected}")
    elapsed = time.monotonic() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report(1, "gain boundary at K' = A: K' in {2.5,3,10} stable, {0.5,1,1.5} unstable "
              f"({elapsed:.2f}s)", failures)


def test_criterion_2_variance_threshold():
    """Analytic threshold sigma* = 0.5 at A=4; the empirical classification
    flips there and bisection localizes the flip within 0.02."""
    failures = []
    a, b, k, g, alpha = 4.0, 1.0, 5.0, 1.0, 1.0
    sigma_star = g * math.sqrt(alpha / a)
    if sigma_star != 0.5:
        failures.append(f"analytic threshold {sigma_star} != 0.5 exactly")

    plant = sk.PlantModel(A=a, B=b, setpoint=[0.0])
    diffusion = sk.DiffusionParams(g=g, alpha=alpha, stochastic=False)
    config = sk.CouplingConfig(
        mode="per-step", dt=2e-3, horizon=60.0, e0=[1.0], u0=[0.0], record_stride=5
    )

    def empirical_label(sigma):
        policy = sk.ExpertPolicy(K=k, Sigma=[[sigma * sigma]])
        return sk.classify_empirical(
            sk.simulate(plant, policy, diffusion, config)
        ).label

    if empirical_label(0.45) != "stable":
        failures.append("sigma=0.45 not empirically stable")
    if empirical_label(0.55) != "unstable":
        failures.append("sigma=0.55 not empirically unstable")

    lo, hi = 0.45, 0.55  # stable on the left of the flip
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if empirical_label(mid) == "stable":
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    if abs(flip - 0.5) >= 0.02:
        failures.append(f"bisected flip point {flip:.4f} not within 0.02 of 0.5")
    report(2, f"variance threshold: sigma* = 0.5, empirical flip at {flip:.4f}",
           failures)


def _draw_table_row(rng, row):
    """Random scalar draw satisfying one classification-table row
    precondition, with margins of at least 0.06 and a measurable dominant
    mode. The nonpositive-response row uses stable demonstrators (the
    table's own context; an unstable demonstrator is classified unstable by
    the closed-loop condition regardless of the gain)."""
    while True:
        if row == 0:  # A > 0, A - BK >= 0: unstable for every gain
            a = float(rng.uniform(0.1, 2.5))
            closed = float(rng.uniform(0.06, 2.0))
            kprime = float(rng.uniform(0.1, 6.0))
        elif row == 1:  # A > 0, A - BK < 0, K' >= A: stable
            a = float(rng.uniform(0.1, 2.5))
            closed = -float(rng.uniform(0.3, 3.0))
            kprime = a + float(rng.uniform(0.3, 4.0))
        elif row == 2:  # A > 0, A - BK < 0, K' < A: unstable
            a = float(rng.uniform(0.3, 2.5))
            closed = -float(rng.uniform(0.3, 3.0))
            kprime = float(rng.uniform(0.1, max(0.11, a - 0.06)))
        else:  # A < 0: stable (stable demonstrator context)
            a = -float(rng.uniform(0.1, 2.5))
            closed = -float(rng.uniform(0.3, 3.0))
            kprime = float(rng.uniform(0.1, 6.0))
        if abs(kprime - a) < 0.06 or kprime <= 0.0:
            continue
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        k = (a - closed) / b
        hi, lo = coupled_eigenvalues(a, b, k, kprime)
        plan = plan_rate_sim(hi, lo)
        if plan is None:
            continue
        g = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.3, 3.0))
        return a, b, k, kprime, g, alpha, plan


def test_criterion_3_table_exhaustive():
    """1000 draws per table row: row classifier, scalar analysis, and the
    empirical classifier agree on every draw outside the deadband."""
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(20_250_808)
    per_row = 1000
    for row in range(4):
        for _ in range(per_row):
            a, b, k, kprime, g, alpha, plan = _draw_table_row(rng, row)
            sigma = g * math.sqrt(alpha / kprime)
            table = sk.classify_table_row(
                math.copysign(1.0, a), math.copysign(1.0, a - b * k), kprime, a
            )
            analytic = sk.analytic_1d(a, b, k, sigma, g, alpha).label
            dt, horizon, stride = plan
            empirical = measure_rate(
                a, b, k, kprime, dt, horizon, stride, g=g, alpha=alpha
            )[0].label
            if not (table == analytic == empirical):
                failures.append(
                    f"row {row}: table={table} analytic={analytic} "
                    f"empirical={empirical} at (A={a:.3f}, B={b:.3f}, K={k:.3f}, "
                    f"K'={kprime:.3f})"
                )
                if len(failures) > 5:
                    break
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(3, f"classification table: 4x{per_row} draws agree across all three "
              f"classifiers ({elapsed:.1f}s)", failures)


def test_criterion_4_oracle_equivalence():
    """Scalar analysis equals the 2x2 eigenvalue sign on 1000 draws, and the
    fitted decay rate matches the dominant real part within max(0.05, 10 dt)."""
    failures = []
    rng = np.random.default_rng(41)
    for _ in range(1000):
        (a, b, k, kprime), (hi, _), (dt, horizon, stride) = (
            draw_measurable_scalar_system(rng)
        )
        sigma = math.sqrt(1.0 / kprime)
        analytic = sk.analytic_1d(a, b, k, sigma, 1.0, 1.0).label
        expected = "stable" if hi.real < 0 else "unstable"
        if analytic != expected:
            failures.append(f"label mismatch at (A={a:.3f}, K'={kprime:.3f})")
        verdict = measure_rate(a, b, k, kprime, dt, horizon, stride)[0]
        tol = max(0.05, 10.0 * dt)
        if not math.isfinite(verdict.rate) or abs(verdict.rate - hi.real) > tol:
            failures.append(
                f"rate mismatch {verdict.rate:.4f} vs {hi.real:.4f} at "
                f"(A={a:.3f}, B={b:.3f}, K={k:.3f}, K'={kprime:.3f})"
            )
        if len(failures) > 5:
            break
    report(4, "1D oracle equivalence on 1000 draws (labels and fitted rates)",
           failures)


def _draw_ndim_stable_system(rng):
    """Random (N in {2,3}) system accepted when the matrix analysis reports
    stable with healthy margins: gain slack >= 0.05 and closed-loop slack of
    at least 0.25 after normalizing by the largest precision eigenvalue (a
    decay-rate floor, so convergence is measurable at a fixed budget)."""
    while True:
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(n, n))
        b = np.eye(n) + 0.4 * rng.normal(size=(n, n))
        if abs(np.linalg.det(b)) < 0.1:
            continue
        k = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        sigmas = np.exp(rng.uniform(np.log(0.2), np.log(0.8), size=n))
        cov = q @ np.diag(sigmas**2) @ q.T
        verdict = sk.analytic_ndim(a, b, k, cov, 1.0, 1.0)
        if verdict.label != "stable":
            continue
        precision = _symmetric(sk.ExpertPolicy(K=k, Sigma=cov).sigma_inv)
        lam_max_p = float(np.linalg.eigvalsh(precision)[-1])
        if verdict.margins["gain_vs_plant"] < 0.05:
            continue
        if verdict.margins["closed_loop"] / lam_max_p < 0.25:
            continue
        return a, b, k, cov


def test_criterion_5_ndim_sufficiency():
    """Every sampled system the matrix analysis calls stable converges
    empirically from 20 random initial conditions; isotropic inputs reduce
    exactly to the scalar symmetric-part tests."""
    failures = []
    rng = np.random.default_rng(0)
    diffusion = sk.DiffusionParams(g=1.0, alpha=1.0, stochastic=False)
    for index in range(200):
        a, b, k, cov = _draw_ndim_stable_system(rng)
        n = a.shape[0]
        plant = sk.PlantModel(A=a, B=b, setpoint=np.zeros(n))
        policy = sk.ExpertPolicy(K=k, Sigma=cov)
        for ic in range(20):
            e0 = rng.normal(size=n)
            u0 = rng.normal(size=n)
            config = sk.CouplingConfig(
                mode="per-step", dt=0.01, horizon=24.0, e0=e0, u0=u0,
                seed=index * 32 + ic, record_stride=4,
            )
            verdict = sk.classify_empirical(sk.simulate(plant, policy, diffusion, config))
            if verdict.label != "stable":
                failures.append(
                    f"system {index} ic {ic}: {verdict.label} (rate {verdict.rate:.4f})"
                )
                break
        if len(failures) > 3:
            break

    # isotropic reduction: conditions equal the scalar eigenvalue tests
    iso_rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(iso_rng.integers(2, 4))
        a = iso_rng.normal(size=(n, n))
        b = np.eye(n) + 0.2 * iso_rng.normal(size=(n, n))
        if abs(np.linalg.det(b)) < 0.1:
            continue
        k = iso_rng.normal(size=(n, n))
        sigma = float(iso_rng.uniform(0.2, 1.5))
        g = float(iso_rng.uniform(0.5, 2.0))
        alpha = float(iso_rng.uniform(0.5, 2.0))
        verdict = sk.analytic_ndim(a, b, k, sigma**2 * np.eye(n), g, alpha)
        kprime = g * g * alpha / sigma**2
        lam_s1 = float(np.linalg.eigvalsh(_symmetric(a))[-1])
        lam_s2 = float(np.linalg.eigvalsh(_symmetric(a - b @ k))[-1])
        want_gain = kprime > lam_s1
        want_cl = lam_s2 < 0
        if verdict.conditions["gain_exceeds_plant_response"] != want_gain:
            failures.append("isotropic gain condition mismatch")
        if verdict.conditions["closed_loop_lyapunov"] != want_cl:
            failures.append("isotropic closed-loop condition mismatch")
    # worked isotropic threshold: sym([[1,2],[0,1]]) has eigenvalues {0, 2}
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    k = a + np.eye(2)
    star = 1.0 / math.sqrt(2.0)
    if sk.analytic_ndim(a, np.eye(2), k, (star - 0.01) ** 2 * np.eye(2), 1.0, 1.0).label != "stable":
        failures.append("isotropic threshold: below sigma* not stable")
    if sk.analytic_ndim(a, np.eye(2), k, (star + 0.01) ** 2 * np.eye(2), 1.0, 1.0).label != "inconclusive":
        failures.append("isotropic threshold: above sigma* not inconclusive")
    report(5, "matrix sufficiency: 200 systems x 20 initial conditions converge, "
              "isotropic reduction exact", failures)


def test_criterion_6_full_vs_partial():
    """Per-step and inner-loop coupling agree on a 16x16 stable grid and both
    reach the origin."""
    failures = []
    a_values = np.linspace(0.25, 2.0, 16)
    kprime_values = np.linspace(3.5, 10.0, 16)
    diffusion = sk.DiffusionParams(g=1.0, alpha=1.0, stochastic=False, inner_steps=12)
    for a in a_values:
        for kprime in kprime_values:
            k = a + 1.0  # closed-loop response fixed at -1
            sigma = math.sqrt(1.0 / kprime)
            analytic = sk.analytic_1d(a, 1.0, k, sigma, 1.0, 1.0)
            if analytic.min_margin <= 0.1:
                failures.append(f"grid cell (A={a:.2f}, K'={kprime:.2f}) has "
                                f"margin {analytic.min_margin:.3f} <= 0.1")
                continue
            plant = sk.PlantModel(A=float(a), B=1.0, setpoint=[0.0])
            policy = sk.ExpertPolicy(K=float(k), Sigma=[[sigma * sigma]])
            config = sk.CouplingConfig(
                mode="per-step", dt=5e-3, horizon=24.0, e0=[1.0], u0=[0.0],
                dt_inner=0.5 / kprime,
            )
            result = sk.full_vs_partial_compare(plant, policy, diffusion, config)
            if result.per_step.label != result.inner_loop.label:
                failures.append(
                    f"(A={a:.2f}, K'={kprime:.2f}): per-step "
                    f"{result.per_step.label} vs inner-loop {result.inner_loop.label}"
                )
            if result.per_step.label != "stable":
                failures.append(f"(A={a:.2f}, K'={kprime:.2f}) not stable")
            traj_ps = sk.simulate(plant, policy, diffusion, config)
            traj_il = sk.simulate(
                plant, policy, diffusion,
                sk.CouplingConfig(mode="inner-loop", dt=5e-3, horizon=24.0,
                                  e0=[1.0], u0=[0.0], dt_inner=0.5 / kprime),
            )
            for name, traj in (("per-step", traj_ps), ("inner-loop", traj_il)):
                terminal = math.hypot(traj.states[-1, 0], traj.actions[-1, 0])
                if terminal >= 1e-3:
                    failures.append(
                        f"(A={a:.2f}, K'={kprime:.2f}) {name} terminal {terminal:.2e}"
                    )
            if len(failures) > 5:
                break
        if len(failures) > 5:
            break
    report(6, "full vs partial on a 16x16 stable grid: verdicts agree, both "
              "reach the origin within 1e-3", failures)


def test_criterion_7_drift_translation():
    """Constant drift c = 0.7 translates the solution without changing the
    contraction: fitted rates about the shifted fixed point agree to 1e-6 and
    the frozen-state action fixed point shifts by sigma^2 c / (g^2 alpha)."""
    failures = []
    a, b, k = 2.0, 1.0, 3.0
    g, alpha, c = 1.0, 1.0, 0.7
    sigma2 = 1.0 / 3.0  # K' = 3
    plant = sk.PlantModel(A=a, B=b, setpoint=[0.0])
    policy = sk.ExpertPolicy(K=k, Sigma=[[sigma2]])
    base = sk.DiffusionParams(g=g, alpha=alpha, stochastic=False)
    drifted = sk.DiffusionParams(g=g, alpha=alpha, drift=[c], stochastic=False)

    # coupled fixed point: u + K e = sigma^2 c / (g^2 alpha), A e + B u = 0
    shift = sigma2 * c / (g * g * alpha)
    e_star = shift * b / (b * k - a)
    u_star = -a * e_star / b

    dt, horizon = 1e-3, 20.0
    cfg_base = sk.CouplingConfig(mode="per-step", dt=dt, horizon=horizon,
                                 e0=[1.0], u0=[0.0])
    cfg_drift = sk.CouplingConfig(mode="per-step", dt=dt, horizon=horizon,
                                  e0=[1.0 + e_star], u0=[u_star])
    traj_base = sk.simulate(plant, policy, base, cfg_base)
    traj_drift = sk.simulate(plant, policy, drifted, cfg_drift)

    def fitted_rate(times, dev):
        norms = np.sqrt(np.sum(dev * dev, axis=1))
        half = len(norms) // 2
        mask = norms[half:] >= 1e-300
        t = times[half:][mask]
        y = np.log(norms[half:][mask])
        return float(np.polyfit(t, y, 1)[0])

    z_base = np.hstack([traj_base.states, traj_base.actions])
    z_drift = np.hstack([traj_drift.states, traj_drift.actions])
    rate_base = fitted_rate(traj_base.times, z_base)
    rate_drift = fitted_rate(traj_drift.times, z_drift - np.array([e_star, u_star]))
    if abs(rate_base - rate_drift) >= 1e-6:
        failures.append(f"rate change {abs(rate_base - rate_drift):.2e} >= 1e-6")

    # long-run coupled terminal state sits on the translated fixed point
    long_cfg = sk.CouplingConfig(mode="per-step", dt=1e-3, horizon=40.0,
                                 e0=[1.0], u0=[0.0])
    terminal = sk.simulate(plant, policy, drifted, long_cfg)
    if abs(terminal.states[-1, 0] - e_star) >= 1e-6:
        failures.append(f"state fixed point off by "
                        f"{abs(terminal.states[-1, 0] - e_star):.2e}")
    if abs(terminal.actions[-1, 0] - u_star) >= 1e-6:
        failures.append(f"action fixed point off by "
                        f"{abs(terminal.actions[-1, 0] - u_star):.2e}")

    # frozen-state denoising fixed point shifts by sigma^2 c / (g^2 alpha)
    params = sk.DiffusionParams(g=g, alpha=alpha, drift=[c], inner_steps=6000)
    e_frozen = 1.5
    u_infinity = sk.full_denoise(policy, params, [e_frozen], dt_inner=0.005)[0]
    if abs(u_infinity - (-k * e_frozen + shift)) >= 1e-6:
        failures.append(
            f"frozen-state shift {u_infinity - (-k * e_frozen):.8f} vs {shift:.8f}"
        )
    report(7, "drift translation: rates unchanged to 1e-6, fixed point shifted "
              "by sigma^2 c / (g^2 alpha)", failures)


def test_criterion_8_brownian_scaling():
    """Stochastic denoising increments have variance alpha g^2 dt; a 99%
    chi-square test over 1e5 samples passes for alpha in {0.5, 1, 4}."""
    failures = []
    n = 100_000
    g, dt = 1.0, 0.01
    policy = sk.ExpertPolicy(K=[[0.0]], Sigma=[[1.0]])  # score term inert
    lo_q, hi_q = stats.chi2.ppf([0.005, 0.995], df=n - 1)
    for alpha in (0.5, 1.0, 4.0):
        params = sk.DiffusionParams(g=g, alpha=alpha, stochastic=True)
        rng = sk.RngStream(int(alpha * 1000) + 3)
        increments = np.array([
            sk.denoise_step(policy, params, [0.0], [0.0], dt=dt, rng=rng)[0]
            for _ in range(n)
        ])
        target = alpha * g * g * dt
        statistic = (n - 1) * float(np.var(increments, ddof=1)) / target
        if not (lo_q <= statistic <= hi_q):
            failures.append(
                f"alpha={alpha}: chi2 statistic {statistic:.1f} outside "
                f"[{lo_q:.1f}, {hi_q:.1f}]"
            )
    report(8, "Brownian scaling: increment variance = alpha g^2 dt at 99% "
              "chi-square over 1e5 samples", failures)


def test_criterion_9_dataset_pipeline():
    """Synthetic demonstrations (n = 1e5) recover the gain within 1% and the
    variance within 5%; the quality verdict matches the ground truth on both
    sides of the threshold."""
    failures = []
    a, b, k_true = 4.0, 1.0, 5.0
    sigma_star = 0.5
    plant = sk.PlantModel(A=a, B=b, setpoint=[0.0])
    for scale, expected in ((0.8, "stable"), (1.2, "unstable")):
        sigma = scale * sigma_star
        demos = sk.generate_demonstrations(
            [[k_true]], [[sigma * sigma]], 100_000, sk.RngStream(int(scale * 10))
        )
        k_hat = sk.estimate_gain(demos)[0, 0]
        if abs(k_hat - k_true) / k_true >= 0.01:
            failures.append(f"K recovery off by {abs(k_hat - k_true) / k_true:.3%}")
        cov_hat = sk.estimate_covariance(demos, [[k_hat]])[0, 0]
        if abs(cov_hat - sigma * sigma) / (sigma * sigma) >= 0.05:
            failures.append(
                f"variance recovery off by {abs(cov_hat - sigma**2) / sigma**2:.3%}"
            )
        report_obj = sk.quality_report(plant, demos, 1.0, 1.0)
        truth = sk.analytic_1d(a, b, k_true, sigma, 1.0, 1.0).label
        if truth != expected:
            failures.append(f"ground truth at {scale} sigma* is {truth}")
        if report_obj.verdict.label != expected:
            failures.append(
                f"sigma = {scale} sigma*: verdict {report_obj.verdict.label} "
                f"!= {expected}"
            )
    report(9, "dataset pipeline: 1% gain, 5% variance recovery, verdicts match "
              "ground truth at 0.8/1.2 sigma*", failures)


def test_criterion_10_determinism(tmp_path, capsys):
    """Every CLI command re-run with identical config and seed produces
    byte-identical CSV/JSON/SVG outputs."""
    failures = []
    config_doc = {
        "plant": {"A": 2.0, "B": 1.0, "r": [5.0]},
        "policy": {"K": 3.0, "sigma": 0.5773502691896258},
        "diffusion": {"g": 1.0, "alpha": 1.0, "stochastic": True},
        "coupling": {
            "mode": "per-step", "dt": 0.001, "horizon": 20.0, "seed": 77,
            "e0": [-5.0], "u0": [0.0],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_doc))
    plant_doc = {
        "plant": {"A": 4.0, "B": 1.0},
        "diffusion": {"g": 1.0, "alpha": 1.0},
    }
    plant_path = tmp_path / "plant.json"
    plant_path.write_text(json.dumps(plant_doc))
    demos = sk.generate_demonstrations([[5.0]], [[0.16]], 3000, sk.RngStream(12))
    demo_lines = ["e_1,u_1"] + [
        f"{e:.17g},{u:.17g}" for e, u in zip(demos.states[:, 0], demos.actions[:, 0])
    ]
    demos_path = tmp_path / "demos.csv"
    demos_path.write_text("\n".join(demo_lines) + "\n")

    commands = {
        "simulate": lambda tag: ["simulate", "-c", str(cfg_path),
                                 "-o", str(tmp_path / f"traj-{tag}.csv")],
        "analyze": lambda tag: ["analyze", "-c", str(cfg_path)],
        "sweep": lambda tag: ["sweep", "-c", str(cfg_path),
                              "--axis1", "A:0.5:2.5:5", "--axis2", "kprime:0.5:6:5",
                              "-o", str(tmp_path / f"region-{tag}.csv"),
                              "--svg", str(tmp_path / f"region-{tag}.svg"),
                              "--empirical", "--jobs", "1"],
        "phase-plane": lambda tag: ["phase-plane", "-c", str(cfg_path),
                                    "--kprime", "1,3,10",
                                    "-o", str(tmp_path / f"phase-{tag}.csv"),
                                    "--svg", str(tmp_path / f"phase-{tag}.svg")],
        "dataset-check": lambda tag: ["dataset-check", "-d", str(demos_path),
                                      "-c", str(plant_path)],
    }
    for name, argv in commands.items():
        outputs = []
        for tag in ("a", "b"):
            code = cli.main(argv(tag))
            stdout = capsys.readouterr().out
            if code not in (0, 3):
                failures.append(f"{name} exited {code}")
            files = sorted(tmp_path.glob(f"*-{tag}.*"))
            outputs.append((stdout, [f.read_bytes() for f in files]))
        if outputs[0][0] != outputs[1][0]:
            failures.append(f"{name}: stdout differs between runs")
        if outputs[0][1] != outputs[1][1]:
            failures.append(f"{name}: file outputs differ between runs")
        for f in tmp_path.glob("*-a.*"):
            f.unlink()
        for f in tmp_path.glob("*-b.*"):
            f.unlink()
    report(10, "determinism: every command yields byte-identical outputs on "
               "re-run", failures)
