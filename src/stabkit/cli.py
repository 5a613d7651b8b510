"""Command-line front end.

Subcommands: ``simulate``, ``analyze``, ``sweep``, ``phase-plane``,
``dataset-check``. Configs are JSON, bulk data is CSV, plots are SVG; all
file outputs are written atomically and carry the effective config as a
leading ``# config=...`` (or ``<!-- config=... -->``) metadata line so runs
can be reproduced from their artifacts.

Exit codes: 0 success, 1 I/O error, 2 validation or parse error, 3 failed
dataset-quality gate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import _svg, _textfmt, matrixkit
from .coupled_sim import (
    CouplingConfig,
    CouplingMode,
    EmpiricalVerdict,
    classify_empirical,
    simulate,
    trajectory_to_csv,
)
from .dataset_quality import QualityReport, load_demonstrations, quality_report
from .diffusion_controller import DiffusionParams
from .errors import ConfigError, ParameterError, StabkitError
from .plant import ExpertPolicy, PlantModel
from .stability_analyzer import (
    AxisSpec,
    StabilityVerdict,
    _scalar_cells,
    analytic_verdict,
    sweep_region,
)


def _build_policy(doc: dict, built: dict) -> ExpertPolicy:
    if ("Sigma" in doc) == ("sigma" in doc):
        raise ParameterError("provide exactly one of 'Sigma' (matrix) or 'sigma' (scalar)")
    if "Sigma" in doc:
        return ExpertPolicy(K=doc["K"], Sigma=doc["Sigma"])
    sigma = matrixkit.as_real(doc["sigma"], "sigma")  # a standard deviation: Sigma = sigma^2 I
    matrixkit._check_positive(sigma=sigma)
    k = matrixkit.as_matrix(doc["K"], "policy K")
    return ExpertPolicy(K=k, Sigma=sigma * sigma * np.eye(k.shape[0]))


def _build_coupling(doc: dict, built: dict) -> CouplingConfig:
    if doc.get("u0") is None:  # at rest: one zero per plant input
        plant = built.get("plant")
        doc = {**doc, "u0": np.zeros(plant.n_inputs if plant else 1)}
    return CouplingConfig(**doc)


# section: (allowed keys, required keys, builder). A builder takes the
# section's known keys and the sections built before it; the dataclass it
# calls checks every value. ``output`` is a free-form path map.
_SECTIONS = {
    "plant": (
        {"A", "B", "r"},
        ("A", "B"),
        lambda doc, built: PlantModel(A=doc["A"], B=doc["B"], setpoint=doc.get("r")),
    ),
    "policy": ({"K", "Sigma", "sigma"}, ("K",), _build_policy),
    "diffusion": (
        {"g", "alpha", "drift", "stochastic", "inner_steps"},
        (),
        lambda doc, built: DiffusionParams(**{"g": 1.0, "alpha": 1.0, **doc}),
    ),
    "coupling": (
        {"mode", "dt", "horizon", "e0", "u0", "seed", "record_stride", "dt_inner"},
        ("mode", "dt", "horizon", "e0"),
        _build_coupling,
    ),
    "output": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    plant: PlantModel | None
    policy: ExpertPolicy | None
    diffusion: DiffusionParams | None
    coupling: CouplingConfig | None
    output: dict
    effective: dict  # config document after seed overrides, for echoing


def parse_run_config(document: dict, require: tuple[str, ...]) -> RunConfig:
    """Build a RunConfig, reporting every violated precondition at once.

    The ``STAB_SEED`` environment variable, when set, overrides the coupling
    seed before validation. A missing ``diffusion`` section means every
    diffusion default.
    """
    if not isinstance(document, dict):
        raise ConfigError(["config root must be a JSON object"])
    violations: list[str] = []
    # Only the section objects change below (the seed override), so copying
    # them leaves ``document`` as it was.
    effective = {key: dict(doc) if isinstance(doc, dict) else doc for key, doc in document.items()}
    sections = {}  # the sections that are JSON objects
    for section, doc in effective.items():
        if section not in _SECTIONS:
            violations.append(f"unknown config section {section!r}")
        elif isinstance(doc, dict):
            sections[section] = doc
        else:
            violations.append(f"{section}: must be a JSON object")
    if "diffusion" not in effective:
        sections["diffusion"] = {}

    env_seed = os.environ.get("STAB_SEED")
    if env_seed is not None and "coupling" in sections:
        try:
            sections["coupling"]["seed"] = int(env_seed)
        except ValueError:
            violations.append(f"STAB_SEED must be an integer, got {env_seed!r}")

    built = {}
    for section, spec in _SECTIONS.items():
        if spec is None or section not in sections:
            continue
        allowed, required, build = spec
        doc = sections[section]
        missing = [key for key in required if key not in doc]
        problems = [f"unknown key {key!r}" for key in doc if key not in allowed]
        problems += [f"requires key {key!r}" for key in missing]
        if not missing:
            try:
                built[section] = build({k: v for k, v in doc.items() if k in allowed}, built)
            except (StabkitError, TypeError, ValueError) as exc:
                problems.append(str(exc))
        violations += [f"{section}: {problem}" for problem in problems]

    for name in require:
        if name not in effective and name != "diffusion":
            violations.append(f"missing config section {name!r}")
    if violations:
        raise ConfigError(violations)
    return RunConfig(
        **{name: built.get(name) for name in ("plant", "policy", "diffusion", "coupling")},
        output=sections.get("output", {}),
        effective=effective,
    )


def _load_config(path: str, require: tuple[str, ...]) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except (ValueError, RecursionError) as exc:  # not UTF-8 text or JSON, or nested too deep
            raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from exc
    return parse_run_config(document, require)


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".stab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _config_echo_csv(config: RunConfig) -> str:
    return "# config=" + json.dumps(config.effective, sort_keys=True) + "\n"


def _config_echo_svg(config: RunConfig) -> str:
    return "<!-- config=" + json.dumps(config.effective, sort_keys=True) + " -->\n"


def _jnum(value: float):  # inf, -inf and nan have no JSON number: write their str()
    return value if math.isfinite(value) else str(value)


def _empirical_dict(verdict: EmpiricalVerdict) -> dict:
    return {
        "label": verdict.label,
        "rate": _jnum(verdict.rate),
        "residual": _jnum(verdict.residual),
    }


def _margins(verdict: StabilityVerdict) -> dict:
    return {key: _jnum(val) for key, val in verdict.margins.items()}


def _analytic_dict(verdict: StabilityVerdict) -> dict:
    return {
        "label": verdict.label,
        "conditions": dict(verdict.conditions),
        "margins": _margins(verdict),
        "notes": list(verdict.notes),
    }


def _quality_dict(report: QualityReport) -> dict:
    threshold = report.sigma_threshold
    return {
        "k_hat": report.k_hat.tolist(),
        "sigma_hat": report.sigma_hat.tolist(),
        "label": report.verdict.label,
        "margins": _margins(report.verdict),
        "sigma_threshold": "none" if threshold is None else _jnum(threshold),
    }


def _resolve_output(args_value, config: RunConfig, key: str) -> str:
    if args_value:
        return args_value
    path = config.output.get(key)
    if not path:
        raise ConfigError(
            [f"output path required: pass -o or set output.{key} in the config"]
        )
    return str(path)


def cmd_simulate(args) -> int:
    config = _load_config(args.config, require=("plant", "policy", "diffusion", "coupling"))
    trajectory = simulate(config.plant, config.policy, config.diffusion, config.coupling)
    verdict = classify_empirical(trajectory)  # a run it refuses leaves no artifact
    out_path = _resolve_output(args.output, config, "trajectory")
    _write_atomic(out_path, _config_echo_csv(config) + trajectory_to_csv(trajectory))
    print(json.dumps(_empirical_dict(verdict), sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args.config, require=("plant", "policy", "diffusion"))
    verdict = analytic_verdict(config.plant, config.policy, config.diffusion)
    print(json.dumps(_analytic_dict(verdict), sort_keys=True))
    return 0


def _parse_axis_flag(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(
            f"axis spec must be name:min:max:steps, got {text!r}"
        )
    name, lo, hi, steps = parts
    try:
        start, stop, count = float(lo), float(hi), float(steps)  # AxisSpec judges the count
    except ValueError as exc:
        raise ParameterError(f"bad axis spec {text!r}: {exc}") from exc
    return AxisSpec(name=name, start=start, stop=stop, steps=count)


def cmd_sweep(args) -> int:
    if args.jobs < 0:
        raise ParameterError(f"--jobs must be >= 0, got {args.jobs}")
    empirical = ("coupling",) if args.empirical else ()
    config = _load_config(args.config, require=("plant", "policy", "diffusion", *empirical))
    axis1 = _parse_axis_flag(args.axis1)
    axis2 = _parse_axis_flag(args.axis2)
    run = config.coupling if empirical else None
    try:
        grid = sweep_region(config.plant, config.policy, config.diffusion, axis1, axis2, run)

        columns = [grid.axis1, grid.axis2, grid.analytic.label, grid.analytic.min_margin]
        if grid.empirical_label is not None:
            columns += [grid.empirical_label, grid.empirical_rate]
        else:
            columns += ["", ""]
        header = "axis1,axis2,analytic_label,analytic_margin_min,empirical_label,empirical_rate"
        out_path = _resolve_output(args.output, config, "sweep")
        _write_atomic(out_path, _config_echo_csv(config) + header + "\n" + _textfmt.csv_rows(columns))

        if args.svg:
            svg = _svg.region_map(
                axis1.values(),
                axis2.values(),
                grid.stable(),
                grid.boundary_points(),
                title="stability region",
                xlabel=axis1.name,
                ylabel=axis2.name,
            )
            _write_atomic(args.svg, _config_echo_svg(config) + svg)
    except MemoryError:
        raise ParameterError(
            f"a {axis1.steps} x {axis2.steps} sweep grid is more than memory holds"
        ) from None
    return 0


def cmd_phase_plane(args) -> int:
    config = _load_config(args.config, require=("plant", "policy", "diffusion", "coupling"))
    plant, policy, diffusion, coupling = (
        config.plant,
        config.policy,
        config.diffusion,
        config.coupling,
    )
    kprimes: list[float] = []
    if args.kprime:
        for token in args.kprime.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                value = float(token)
            except ValueError as exc:
                raise ParameterError(f"bad --kprime value {token!r}: {exc}") from exc
            if not (value > 0.0):
                raise ParameterError(f"kprime values must be > 0, got {value}")
            kprimes.append(value)
    variances = _scalar_cells(plant, policy, diffusion, (("kprime", np.array(kprimes)),))[-1]

    per_step = replace(coupling, mode=CouplingMode.PER_STEP)
    runs = [("expert", None, replace(coupling, mode=CouplingMode.EXPERT_ORACLE), policy)]
    runs += [(f"kprime={kp:g}", kp, per_step, ExpertPolicy(K=policy.K, Sigma=[[variance]]))
             for kp, variance in zip(kprimes, variances)]

    setpoint = float(plant.setpoint[0])
    rows = []  # (series name, t, x, u) of every run
    summary = []
    svg_series = []
    for name, kp, run_config, run_policy in runs:
        trajectory = simulate(plant, run_policy, diffusion, run_config)
        xs = trajectory.states[:, 0] + setpoint
        us = trajectory.actions[:, 0]
        rows.append((np.full(len(trajectory), name), trajectory.times, xs, us))
        verdict = classify_empirical(trajectory)
        summary.append(
            {
                "name": name,
                "kprime": kp,
                "label": verdict.label,
                "rate": _jnum(verdict.rate),
                "diverged": trajectory.diverged,
            }
        )
        svg_series.append((name, xs, us))

    out_path = _resolve_output(args.output, config, "phase")
    table = _textfmt.csv_rows([np.concatenate(column) for column in zip(*rows)])
    _write_atomic(out_path, _config_echo_csv(config) + "series,t,x,u\n" + table)
    if args.svg:
        svg = _svg.line_chart(
            svg_series, title="augmented phase plane", xlabel="x", ylabel="u"
        )
        _write_atomic(args.svg, _config_echo_svg(config) + svg)
    print(json.dumps({"series": summary}, sort_keys=True))
    return 0


def cmd_dataset_check(args) -> int:
    config = _load_config(args.config, require=("plant",))
    with open(args.demos, "r", encoding="utf-8") as handle:
        demos = load_demonstrations(handle)
    g, alpha = config.diffusion.g, config.diffusion.alpha
    report = quality_report(config.plant, demos, g, alpha)
    print(json.dumps({**_quality_dict(report), "g": g, "alpha": alpha}, sort_keys=True))
    return 0 if report.verdict.label == "stable" else 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``stab`` parser, built once per process: parsing leaves it as it
    was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="stab",
        description="Simulate and analyze LTI plants under denoising-diffusion control.",
    )
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", help="roll out the coupled system to CSV")
    p_sim.add_argument("-c", "--config", required=True)
    p_sim.add_argument("-o", "--output")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="print the analytic stability verdict")
    p_an.add_argument("-c", "--config", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="evaluate a 2-D parameter grid")
    p_sw.add_argument("-c", "--config", required=True)
    p_sw.add_argument("--axis1", required=True, help="name:min:max:steps")
    p_sw.add_argument("--axis2", required=True, help="name:min:max:steps")
    p_sw.add_argument("-o", "--output")
    p_sw.add_argument("--svg")
    p_sw.add_argument(
        "--empirical",
        action="store_true",
        help="also simulate every cell, which needs a coupling section: a deterministic "
        "per-step run with the config's dt, horizon, e0, u0 and record_stride; the coupling "
        "mode and seed and the diffusion's stochastic, drift and inner_steps are ignored",
    )
    p_sw.add_argument("--jobs", type=int, default=0, help="ignored; kept for compatibility")
    p_sw.set_defaults(func=cmd_sweep)

    p_ph = sub.add_parser("phase-plane", help="expert and controller trajectories in (x, u)")
    p_ph.add_argument("-c", "--config", required=True)
    p_ph.add_argument("--kprime", help="comma-separated effective gains")
    p_ph.add_argument("-o", "--output")
    p_ph.add_argument("--svg")
    p_ph.set_defaults(func=cmd_phase_plane)

    p_dc = sub.add_parser("dataset-check", help="gate a demonstration CSV on stability")
    p_dc.add_argument("-d", "--demos", required=True)
    p_dc.add_argument("-c", "--config", required=True)
    p_dc.set_defaults(func=cmd_dataset_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except StabkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
