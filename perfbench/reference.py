"""Reference check of every response, computed independently with numpy.

The benchmark never imports stabkit here: each check recomputes what the
response must satisfy from the generated inputs alone. A request fails on

* an unexpected exit code, or output that cannot be parsed;
* a wrong number of CSV rows, or recorded times, axis values or the echoed
  config that do not match the request;
* a deterministic empirical label that contradicts the spectral radius of
  the one-step Euler map when that rate is clearly away from the deadband
  (inner-loop: the inner updates are composed as matrices);
* an ``analyze`` label of ``stable`` when the augmented matrix has an
  eigenvalue with positive real part, or an N-D label that contradicts the
  paper's sufficient conditions evaluated with ``numpy.linalg.eigvalsh``;
* a ``dataset-check`` ``k_hat`` further from ``numpy.linalg.lstsq`` than
  cond(E) eps (scaled by record count and dimension).

Two of these findings are limits of the method the program documents
rather than slips in implementing it, and are recorded as known defects
(ROADMAP item 3): the paper's N-D sufficient conditions saying ``stable``
for a loop whose augmented matrix is unstable, and a ``k_hat`` that misses
the cond(E) eps bound but meets the cond(E)^2 eps bound any backward-stable
solve of the normal equations meets. Both count in ``error_frac``; only the
other findings count as failed requests. Stochastic runs get structural
checks only.
"""

from __future__ import annotations

import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

DEADBAND = 0.02  # fitted rates within this band of zero are "marginal"
BLOWUP = 1e9  # divergence bound: |e| or |u| beyond BLOWUP * (1 + |e0|)
EPS = float(np.finfo(float).eps)
# A deterministic rate is "clearly" signed when it is 5x the deadband and
# the fit window (the trailing half of the run) spans at least 3 e-folds.
CLEAR_RATE = 5 * DEADBAND
CLEAR_EFOLDS = 3.0
# Relative slack for eigenvalue and margin signs.
SIGN_TOL = 1e-6

# Known defect classes: wrong answers that follow from the method the
# program documents, not from a slip in implementing it (ROADMAP item 3).
NDIM_NOT_SUFFICIENT = "N-D sufficient conditions claim stable for an unstable loop"
NORMAL_EQUATIONS = "normal equations lose accuracy"

EMPIRICAL_LABELS = {"stable", "unstable", "marginal"}
ANALYTIC_LABELS = EMPIRICAL_LABELS | {"inconclusive"}
SWEEP_HEADER = "axis1,axis2,analytic_label,analytic_margin_min,empirical_label,empirical_rate"
STABLE_FILL, UNSTABLE_FILL = "#74c0a0", "#d98080"


class Outcome:
    """Result of checking one request."""

    def __init__(self):
        self.problems: list[str] = []
        self.known_defects: list[str] = []
        self.work = 0  # plant steps, sweep cells or demonstration records
        self.compared = 0  # verdict pairs with a decisive analytic label
        self.agreed = 0

    def fail(self, message: str):
        self.problems.append(message)

    def known(self, message: str):
        self.known_defects.append(message)

    def compare(self, analytic: str, empirical: str):
        if analytic in ("stable", "unstable"):
            self.compared += 1
            self.agreed += int(analytic == empirical)


class _Invalid(Exception):
    """Response cannot be parsed; the message says why."""


def _mat(value) -> np.ndarray:
    return np.atleast_2d(np.asarray(value, dtype=float))


def _sym(m):
    return 0.5 * (m + m.T)


def _model(doc):
    a, b = _mat(doc["plant"]["A"]), _mat(doc["plant"]["B"])
    policy = doc.get("policy", {})
    k = _mat(policy["K"]) if "K" in policy else None
    sigma = _mat(policy["Sigma"]) if "Sigma" in policy else None
    if "sigma" in policy:
        sigma = float(policy["sigma"]) ** 2 * np.eye(k.shape[0])
    diffusion = doc.get("diffusion", {})
    return a, b, k, sigma, float(diffusion.get("g", 1.0)), float(diffusion.get("alpha", 1.0))


def euler_map(a, b, k, sigma, g, alpha, mode, dt, dt_inner=None, inner_steps=25):
    """One-step matrix of the deterministic rollout on the state whose norm
    the classifier fits: (e, u) for per-step, e otherwise."""
    n, m = a.shape[0], b.shape[1]
    precision = g * g * alpha * np.linalg.inv(sigma)
    if mode == "expert-oracle":
        return np.eye(n) + dt * (a - b @ k)
    if mode == "per-step":
        return np.block([[np.eye(n) + dt * a, dt * b],
                         [-dt * precision @ k, np.eye(m) - dt * precision]])
    step = (dt_inner if dt_inner is not None else dt * alpha / inner_steps) / alpha
    p = np.eye(m) - step * precision
    q = -step * precision @ k
    s, power = np.zeros((m, m)), np.eye(m)
    for _ in range(inner_steps):  # u = sum_j P^j Q e, starting from u = 0
        s += power
        power = power @ p
    return np.eye(n) + dt * (a + b @ s @ q)


def reference_rate(step_matrix, dt) -> float:
    radius = float(np.max(np.abs(np.linalg.eigvals(step_matrix))))
    return math.log(radius) / dt if radius > 0.0 else -math.inf


def expected_label(rate: float, horizon: float) -> str | None:
    if abs(rate) >= CLEAR_RATE and abs(rate) * horizon / 2.0 >= CLEAR_EFOLDS:
        return "stable" if rate < 0.0 else "unstable"
    return None


def _json(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Invalid(f"stdout is not JSON: {exc}") from None
    if not isinstance(value, dict):
        raise _Invalid("stdout JSON is not an object")
    return value


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _Invalid(f"cannot read {path}: {exc}") from None
    if not text.endswith("\n"):
        raise _Invalid(f"{path} does not end with a newline")
    return text[:-1].split("\n")


def _check_echo(line: str, prefix: str, suffix: str, config: dict, out: Outcome):
    if not (line.startswith(prefix) and line.endswith(suffix)):
        raise _Invalid(f"missing config echo line, got {line[:40]!r}")
    if json.loads(line[len(prefix):len(line) - len(suffix)]) != config:
        out.fail("echoed config differs from the request's config")


def _numeric_rows(lines: list[str], columns: int) -> np.ndarray:
    if not lines:
        return np.zeros((0, columns))
    try:
        data = np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise _Invalid(f"unparseable CSV rows: {exc}") from None
    if data.shape[1] != columns:
        raise _Invalid(f"expected {columns} columns, got {data.shape[1]}")
    return data


def recorded_steps(steps: int, stride: int) -> np.ndarray:
    """Step indices of the recorded samples after t = 0."""
    ks = list(range(stride, steps + 1, stride))
    if steps % stride:
        ks.append(steps)
    return np.array(ks, dtype=float)


def _check_rows(data, e0, u0, dt, steps, stride, diverged, what, out):
    """Row count, times, first sample, and the blow-up of a diverged run."""
    ks = recorded_steps(steps, stride)
    rows = data.shape[0]
    if diverged:
        if not 2 <= rows <= 1 + len(ks):
            out.fail(f"{what}: diverged run has {rows} rows, at most {1 + len(ks)} expected")
            return 0
        n = len(e0)
        last_e, last_u = data[-1, 1:1 + n], data[-1, 1 + n:]
        blow = BLOWUP * (1.0 + float(np.linalg.norm(e0)))
        finite = np.all(np.isfinite(last_e)) and np.all(np.isfinite(last_u))
        if finite and np.linalg.norm(last_e) <= blow and np.linalg.norm(last_u) <= blow:
            out.fail(f"{what}: run reported diverged but its last sample is within bounds")
    elif rows != 1 + len(ks):
        out.fail(f"{what}: {rows} rows, expected {1 + len(ks)}")
        return 0
    times = np.concatenate([[0.0], ks[:rows - 1] * dt])
    if not np.allclose(data[:, 0], times, rtol=1e-12, atol=0.0):
        out.fail(f"{what}: recorded times do not match the stride")
    first_e, first_u = data[0, 1:1 + len(e0)], data[0, 1 + len(e0):]
    if not (np.array_equal(first_e, e0) and np.array_equal(first_u, u0)):
        out.fail(f"{what}: first sample is not (e0, u0)")
    return int(round(data[-1, 0] / dt))


def _empirical(result: dict, what: str) -> tuple[str, float]:
    label, rate = result.get("label"), result.get("rate")
    if label not in EMPIRICAL_LABELS:
        raise _Invalid(f"{what}: bad empirical label {label!r}")
    try:
        return label, float(rate)
    except (TypeError, ValueError):
        raise _Invalid(f"{what}: bad rate {rate!r}") from None


def check_analyze(doc: dict, text: str, out: Outcome) -> str:
    """Check an ``analyze`` response; return its label."""
    result = _json(text)
    label = result.get("label")
    if label not in ANALYTIC_LABELS:
        raise _Invalid(f"analyze: bad label {label!r}")
    a, b, k, sigma, g, alpha = _model(doc)
    precision = g * g * alpha * np.linalg.inv(sigma)
    aug = np.block([[a, b], [-(precision @ k), -precision]])
    eig = np.linalg.eigvals(aug)
    top = float(np.max(eig.real))
    scale = max(1.0, float(np.max(np.abs(eig))))
    scalar = a.shape[0] == 1 and b.shape[1] == 1
    if label == "stable" and top > SIGN_TOL * scale:
        message = f"analyze: 'stable' but augmented eigenvalue real part {top:.3g} > 0"
        if scalar:
            out.fail(message)
        else:
            out.known(NDIM_NOT_SUFFICIENT + ": " + message)
    if scalar:
        if label == "unstable" and top < -SIGN_TOL * scale:
            out.fail(f"analyze: 'unstable' but augmented spectral abscissa is {top:.3g}")
        return label
    p = _sym(precision)
    lam_a = float(np.linalg.eigvalsh(_sym(a))[-1])
    lam_p = float(np.linalg.eigvalsh(p)[0])
    lam_cl = float(np.linalg.eigvalsh(_sym(p @ (a - b @ k)))[-1])
    margins = [(lam_p - lam_a, max(1.0, abs(lam_p), abs(lam_a))), (-lam_cl, max(1.0, abs(lam_cl)))]
    if all(m > SIGN_TOL * s for m, s in margins) and label != "stable":
        out.fail(f"analyze: sufficient conditions hold but label is {label!r}")
    if any(m < -SIGN_TOL * s for m, s in margins) and label != "inconclusive":
        out.fail(f"analyze: a sufficient condition fails but label is {label!r}")
    return label


def check_simulate(spec: dict, codes, stdouts, out: Outcome):
    if codes != [0, 0]:
        raise _Invalid(f"exit codes {codes}, expected [0, 0]")
    doc = spec["config"]
    coupling = doc["coupling"]
    a, b, k, sigma, g, alpha = _model(doc)
    n, m = a.shape[0], b.shape[1]
    emp_label, emp_rate = _empirical(_json(stdouts[0]), "simulate")
    an_label = check_analyze(doc, stdouts[1], out)

    lines = _read_lines(spec["csv"])
    if len(lines) < 2:
        raise _Invalid("trajectory CSV has no header")
    _check_echo(lines[0], "# config=", "", doc, out)
    header = ",".join(["t"] + [f"e_{i + 1}" for i in range(n)] + [f"u_{j + 1}" for j in range(m)])
    if lines[1] != header:
        out.fail(f"trajectory header {lines[1]!r}, expected {header!r}")
    data = _numeric_rows(lines[2:], 1 + n + m)
    dt, horizon = float(coupling["dt"]), float(coupling["horizon"])
    diverged = emp_rate == math.inf
    e0, u0 = np.asarray(coupling["e0"], float), np.asarray(coupling["u0"], float)
    out.work = _check_rows(data, e0, u0, dt, spec["steps"], int(coupling.get("record_stride", 1)),
                           diverged, "trajectory", out)
    if not doc["diffusion"].get("stochastic", False):
        step = euler_map(a, b, k, sigma, g, alpha, coupling["mode"], dt, coupling.get("dt_inner"))
        expected = expected_label(reference_rate(step, dt), horizon)
        if expected is not None and emp_label != expected:
            out.fail(f"simulate: label {emp_label!r} but the Euler map says {expected!r}")
    out.compare(an_label, emp_label)


def _svg_root(path: str, config: dict, out: Outcome):
    lines = _read_lines(path)
    _check_echo(lines[0], "<!-- config=", " -->", config, out)
    try:
        root = ET.fromstring("\n".join(lines[1:]))
    except ET.ParseError as exc:
        raise _Invalid(f"SVG does not parse: {exc}") from None
    if not root.tag.endswith("svg"):
        raise _Invalid(f"SVG root is {root.tag!r}")
    return root


def _apply_axis(params: dict, name: str, value: float):
    if name == "kprime":
        params["sigma"] = params["g"] * math.sqrt(params["alpha"] / value)
    else:
        params[name] = value


def check_sweep(spec: dict, codes, stdouts, out: Outcome):
    if codes != [0] or stdouts[0] != "":
        raise _Invalid(f"exit codes {codes}, expected [0] and no stdout")
    doc = spec["config"]
    (name1, lo1, hi1, n1), (name2, lo2, hi2, n2) = spec["axes"]
    lines = _read_lines(spec["csv"])
    _check_echo(lines[0], "# config=", "", doc, out)
    if lines[1] != SWEEP_HEADER:
        out.fail("sweep header differs")
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != n1 * n2 or any(len(r) != 6 for r in rows):
        raise _Invalid(f"sweep CSV has {len(rows)} rows, expected {n1 * n2} of 6 fields")
    a, b, k, sigma, g, alpha = _model(doc)
    base = {"A": a[0, 0], "B": b[0, 0], "K": k[0, 0], "sigma": math.sqrt(sigma[0, 0]),
            "g": g, "alpha": alpha}
    values1, values2 = np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)
    coupling = doc.get("coupling")
    stable_cells = 0
    for index, fields in enumerate(rows):
        v1, v2 = float(values1[index // n2]), float(values2[index % n2])
        try:
            got1, got2 = float(fields[0]), float(fields[1])
            an_label, emp_label = fields[2], fields[4]
        except ValueError:
            raise _Invalid(f"sweep row {index}: unparseable axis values") from None
        if got1 != v1 or got2 != v2:
            out.fail(f"sweep row {index}: axis values ({got1}, {got2}) != ({v1}, {v2})")
            continue
        params = dict(base)
        _apply_axis(params, name1, v1)
        _apply_axis(params, name2, v2)
        kprime = params["g"] ** 2 * params["alpha"] / params["sigma"] ** 2
        aug = np.array([[params["A"], params["B"]], [-kprime * params["K"], -kprime]])
        eig = np.linalg.eigvals(aug)
        top, scale = float(np.max(eig.real)), max(1.0, float(np.max(np.abs(eig))))
        stable_cells += an_label == "stable"
        if an_label not in ANALYTIC_LABELS:
            out.fail(f"sweep row {index}: bad analytic label {an_label!r}")
        elif an_label == "stable" and top > SIGN_TOL * scale:
            out.fail(f"sweep row {index}: 'stable' with spectral abscissa {top:.3g}")
        elif an_label == "unstable" and top < -SIGN_TOL * scale:
            out.fail(f"sweep row {index}: 'unstable' with spectral abscissa {top:.3g}")
        if not spec["empirical"]:
            if emp_label or fields[5]:
                out.fail(f"sweep row {index}: empirical columns filled without --empirical")
            continue
        if emp_label not in EMPIRICAL_LABELS:
            out.fail(f"sweep row {index}: bad empirical label {emp_label!r}")
            continue
        dt = float(coupling["dt"])
        step = euler_map(np.array([[params["A"]]]), np.array([[params["B"]]]),
                         np.array([[params["K"]]]), np.array([[params["sigma"] ** 2]]),
                         params["g"], params["alpha"], "per-step", dt)
        expected = expected_label(reference_rate(step, dt), float(coupling["horizon"]))
        if expected is not None and emp_label != expected:
            out.fail(f"sweep row {index}: empirical {emp_label!r}, Euler map says {expected!r}")
        out.compare(an_label, emp_label)
    root = _svg_root(spec["svg"], doc, out)
    fills = [el.get("fill") for el in root.iter() if el.tag.endswith("rect")]
    cells = sum(f in (STABLE_FILL, UNSTABLE_FILL) for f in fills)
    if cells != n1 * n2 or fills.count(STABLE_FILL) != stable_cells:
        out.fail(f"region map has {cells} cells ({fills.count(STABLE_FILL)} stable), "
                 f"expected {n1 * n2} ({stable_cells} stable)")
    out.work = n1 * n2


def check_phase(spec: dict, codes, stdouts, out: Outcome):
    if codes != [0]:
        raise _Invalid(f"exit codes {codes}, expected [0]")
    doc = spec["config"]
    coupling = doc["coupling"]
    a, b, k, sigma, g, alpha = _model(doc)
    series = _json(stdouts[0]).get("series")
    runs = [("expert", "expert-oracle", sigma)]
    for kp in spec["kprimes"]:
        s = g * math.sqrt(alpha / kp)
        runs.append((f"kprime={kp:g}", "per-step", np.array([[s * s]])))
    if not isinstance(series, list) or [s.get("name") for s in series] != [r[0] for r in runs]:
        raise _Invalid("phase-plane summary does not list the expected series")
    lines = _read_lines(spec["csv"])
    _check_echo(lines[0], "# config=", "", doc, out)
    if lines[1] != "series,t,x,u":
        out.fail("phase-plane header differs")
    by_name: dict[str, list[str]] = {}
    for line in lines[2:]:
        name, _, rest = line.partition(",")
        by_name.setdefault(name, []).append(rest)
    dt, horizon = float(coupling["dt"]), float(coupling["horizon"])
    e0, u0 = np.asarray(coupling["e0"], float), np.asarray(coupling.get("u0", [0.0]), float)
    for (name, mode, run_sigma), summary in zip(runs, series):
        data = _numeric_rows(by_name.get(name, []), 3)
        diverged = bool(summary.get("diverged"))
        _check_rows(data, e0, u0, dt, spec["steps"],
                    int(coupling.get("record_stride", 1)), diverged, name, out)
        label, _ = _empirical(summary, name)
        step = euler_map(a, b, k, run_sigma, g, alpha, mode, dt)
        expected = expected_label(reference_rate(step, dt), horizon)
        if expected is not None and label != expected:
            out.fail(f"phase-plane {name}: label {label!r}, Euler map says {expected!r}")
    root = _svg_root(spec["svg"], doc, out)
    if sum(el.tag.endswith("polyline") for el in root.iter()) > len(runs):
        out.fail("phase-plane SVG has more polylines than series")


def _dataset_verdict(a, b, k, cov, g, alpha) -> str | None:
    """'stable' or 'fail' when the gate's decision is clear, else None."""
    if a.shape[0] == 1:
        av, bv, kv, sv = a[0, 0], b[0, 0], k[0, 0], math.sqrt(cov[0, 0])
        kprime = g * g * alpha / (sv * sv)
        margins = [(bv * kv - av, max(1.0, abs(av), abs(bv * kv)))]
        if av > 0.0:
            star = g * math.sqrt(alpha / av)
            margins += [(kprime - av, max(1.0, abs(av), kprime)), (star - sv, max(1.0, sv, star))]
    else:
        p = _sym(g * g * alpha * np.linalg.inv(cov))
        lam_a = float(np.linalg.eigvalsh(_sym(a))[-1])
        lam_p = float(np.linalg.eigvalsh(p)[0])
        lam_cl = float(np.linalg.eigvalsh(_sym(p @ (a - b @ k)))[-1])
        margins = [(lam_p - lam_a, max(1.0, abs(lam_p), abs(lam_a))),
                   (-lam_cl, max(1.0, abs(lam_cl)))]
    if all(m > SIGN_TOL * s for m, s in margins):
        return "stable"
    if any(m < -SIGN_TOL * s for m, s in margins):
        return "fail"
    return None


def check_dataset(spec: dict, codes, stdouts, out: Outcome):
    out.work = spec["records"]
    if spec["case"] == "rankdef":
        if codes != [2] or stdouts[0] != "":
            raise _Invalid(f"rank-deficient log: exit codes {codes}, expected [2]")
        return
    if codes[0] not in (0, 3):
        raise _Invalid(f"exit codes {codes}, expected 0 or 3")
    result = _json(stdouts[0])
    label = result.get("label")
    if (codes[0] == 0) != (label == "stable"):
        out.fail(f"exit code {codes[0]} does not match label {label!r}")
    n = spec["dim"]
    data = np.loadtxt(spec["demos"], delimiter=",", skiprows=1, ndmin=2)
    states, actions = data[:, :n], data[:, n:]
    try:
        k_hat = np.asarray(result["k_hat"], dtype=float).reshape(n, n)
        sigma_hat = np.asarray(result["sigma_hat"], dtype=float).reshape(n, n)
    except (KeyError, TypeError, ValueError):
        raise _Invalid("k_hat / sigma_hat missing or malformed") from None
    k_ref = -np.linalg.lstsq(states, actions, rcond=None)[0].T
    cond = float(np.linalg.cond(states))
    scale = max(1.0, float(np.max(np.abs(k_ref))))
    slack = 16.0 * math.sqrt(spec["records"]) * n * EPS * scale
    err = float(np.max(np.abs(k_hat - k_ref)))
    if err > slack * cond * cond:
        out.fail(f"k_hat differs from lstsq by {err:.3g} > {slack * cond * cond:.3g}")
    elif err > slack * cond:
        out.known(f"{NORMAL_EQUATIONS}: k_hat off lstsq by {err:.3g} > cond(E) eps bound "
                  f"{slack * cond:.3g} (cond(E) = {cond:.3g})")
    residuals = actions + states @ k_ref.T
    centered = residuals - residuals.mean(axis=0)
    cov = _sym(centered.T @ centered / (len(states) - 1)) + 1e-12 * np.eye(n)
    a, b, _, _, g, alpha = _model(spec["config"])
    verdict = _dataset_verdict(a, b, k_ref, cov, g, alpha)
    if (verdict == "stable" and codes[0] != 0) or (verdict == "fail" and codes[0] != 3):
        out.fail(f"gate exit {codes[0]} but the lstsq reference says {verdict!r}")
    if label == "stable":
        precision = g * g * alpha * np.linalg.inv(sigma_hat)
        aug = np.block([[a, b], [-(precision @ k_hat), -precision]])
        top = float(np.max(np.linalg.eigvals(aug).real))
        if top > 0.0:
            message = f"gate passed but the fitted loop has spectral abscissa {top:.3g}"
            if n == 1:
                out.fail(message)
            else:
                out.known(NDIM_NOT_SUFFICIENT + ": " + message)


def check_analyze_request(spec: dict, codes, stdouts, out: Outcome):
    if codes != [0]:
        raise _Invalid(f"exit codes {codes}, expected [0]")
    check_analyze(spec["config"], stdouts[0], out)


CHECKS = {
    "simulate": check_simulate,
    "sweep": check_sweep,
    "phase": check_phase,
    "dataset": check_dataset,
    "analyze": check_analyze_request,
}


def check(spec: dict, codes: list, stdouts: list[str]) -> Outcome:
    """Check one response against the request's spec."""
    out = Outcome()
    try:
        CHECKS[spec["type"]](spec, codes, stdouts, out)
    except _Invalid as exc:
        out.fail(str(exc))
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # incl. LinAlgError
        out.fail(f"malformed response: {exc!r}")
    return out
