"""Spans and counters around stabkit's layers, installed from outside.

``install`` replaces public functions with timing wrappers at every place a
stabkit module binds them (``stabkit.cli.simulate`` and
``stabkit.stability_analyzer.simulate`` are the same function imported
twice), so no source file is touched. A name that does not exist or is
never called simply records zero calls.

Functions called once or a few times per request record one span each:
name, start, end, enclosing span, request id and self time. Functions
called more than ~1e4 times per run (the denoising inner loop, RNG draws,
scalar verdicts of a 64x64 grid, matrixkit primitives) are recorded only as
a count and total time under their parent, which keeps tracing overhead
and memory small. Everything stays in memory until the run ends.

Self time is a call's duration minus the time of the wrapped calls it
made, so ``coupled_sim.simulate`` self time excludes ``full_denoise``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from typing import NamedTuple

SPAN = "span"
COUNT = "count"


def _size(args, kwargs):
    """Leading dimension of the first argument (matrix size N)."""
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return 1


def _simulate_work(args, kwargs, traj):
    steps = round(float(traj.times[-1]) / traj.config.dt)
    width = traj.states.shape[1] + traj.actions.shape[1]
    return {"step_states": steps * width, "diverged": int(bool(traj.diverged))}


def _draws(args, kwargs, result):
    try:
        return {"draws": int(result.size)}
    except AttributeError:
        return {"draws": 1}


# (module, attribute, metric name, kind, size function, quantities function)
TARGETS = (
    ("stabkit.cli", "parse_run_config", "cli.parse_run_config", SPAN, None, None),
    ("stabkit.cli", "_write_atomic", "cli.write", SPAN, None,
     lambda a, k, r: {"bytes": len(a[1].encode("utf-8"))}),
    ("stabkit.coupled_sim", "simulate", "coupled_sim.simulate", SPAN, None, _simulate_work),
    ("stabkit.coupled_sim", "classify_empirical", "coupled_sim.classify_empirical", SPAN,
     None, None),
    ("stabkit.coupled_sim", "trajectory_to_csv", "coupled_sim.trajectory_to_csv", SPAN, None,
     lambda a, k, r: {"rows": len(a[0])}),
    ("stabkit.diffusion_controller", "full_denoise", "diffusion_controller.full_denoise",
     SPAN, None, None),
    ("stabkit.diffusion_controller", "denoise_step", "diffusion_controller.denoise_step",
     COUNT, None, None),
    ("stabkit.diffusion_controller", "score", "diffusion_controller.score", COUNT, None, None),
    ("stabkit.diffusion_controller", "RngStream.standard_normal", "diffusion_controller.rng",
     COUNT, None, _draws),
    ("stabkit.stability_analyzer", "analytic_1d", "stability_analyzer.analytic_1d", COUNT,
     None, None),
    ("stabkit.stability_analyzer", "analytic_ndim", "stability_analyzer.analytic_ndim", SPAN,
     _size, None),
    ("stabkit.stability_analyzer", "evaluate_sweep_cell",
     "stability_analyzer.evaluate_sweep_cell", COUNT, None, None),
    ("stabkit.matrixkit", "eig_sym", "matrixkit.eig_sym", COUNT, _size, None),
    ("stabkit.matrixkit", "invert", "matrixkit.invert", COUNT, _size, None),
    ("stabkit.matrixkit", "is_positive_definite", "matrixkit.is_positive_definite", COUNT,
     _size, None),
    ("stabkit.matrixkit", "cholesky", "matrixkit.cholesky", COUNT, _size, None),
    ("stabkit.dataset_quality", "load_demonstrations", "dataset_quality.load_demonstrations",
     SPAN, None, lambda a, k, r: {"records": r.n_records}),
    ("stabkit.dataset_quality", "estimate_gain", "dataset_quality.estimate_gain", SPAN, None,
     None),
    ("stabkit.dataset_quality", "estimate_covariance", "dataset_quality.estimate_covariance",
     SPAN, None, None),
    ("stabkit.dataset_quality", "quality_report", "dataset_quality.quality_report", SPAN,
     None, None),
    ("stabkit._svg", "region_map", "svg.region_map", SPAN, None,
     lambda a, k, r: {"bytes": len(r)}),
    ("stabkit._svg", "line_chart", "svg.line_chart", SPAN, None,
     lambda a, k, r: {"bytes": len(r)}),
)


class Tracer:
    """In-memory spans plus per-pass aggregates keyed by (parent, name, size)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self.passes: list[dict] = []
        self._agg: dict = {}
        self._stack: list[list] = []  # [name, child seconds, span id or None]

    def begin_pass(self):
        self._agg = {}
        self.passes.append(self._agg)

    def call(self, name, kind, fn, args, kwargs, size_fn=None, quantities_fn=None):
        size = size_fn(args, kwargs) if size_fn else None
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans) if kind == SPAN else None
        if span_id is not None:
            self.spans.append(None)  # reserve the id; filled on exit
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, parent, start, time.perf_counter(), size, None)
            raise
        end = time.perf_counter()
        quantities = quantities_fn(args, kwargs, result) if quantities_fn else None
        self._close(frame, parent, start, end, size, quantities)
        return result

    def _close(self, frame, parent, start, end, size, quantities):
        self._stack.pop()
        name, child, span_id = frame
        duration = end - start
        self_time = duration - child
        parent_name = None
        if parent is not None:
            parent[1] += duration
            parent_name = parent[0]
        record = self._agg.setdefault((parent_name, name, size), [0, 0.0, 0.0, {}])
        record[0] += 1
        record[1] += duration
        record[2] += self_time
        for key, value in (quantities or {}).items():
            record[3][key] = record[3].get(key, 0) + value
        if span_id is not None:
            enclosing = next(
                (f[2] for f in reversed(self._stack) if f[2] is not None), None
            )
            self.spans[span_id] = (span_id, name, start, end, enclosing, self.request,
                                   self_time, quantities)

    def dump(self, path: str):
        """Write spans, then per-pass aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                sid, name, start, end, parent, request, self_time, quantities = span
                handle.write(json.dumps(
                    {"span": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "request": request, "self": self_time,
                     **({"q": quantities} if quantities else {})}) + "\n")
            for index, agg in enumerate(self.passes):
                for (parent, name, size), (calls, total, self_s, q) in sorted(
                    agg.items(), key=lambda item: tuple(str(x) for x in item[0])
                ):
                    handle.write(json.dumps(
                        {"pass": index, "parent": parent, "name": name, "size": size,
                         "calls": calls, "total": total, "self": self_s, "q": q}) + "\n")


def _wrap(tracer, name, kind, fn, size_fn, quantities_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, kind, fn, args, kwargs, size_fn, quantities_fn)

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever stabkit binds it. Returns the targets that
    were not found (they record zero calls)."""
    missing = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "stabkit" or n.startswith("stabkit."))]
    for module_name, attr, name, kind, size_fn, quantities_fn in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        if "." in attr:  # a method: patch it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue

            def method(self, *args, _fn=original, _name=name, _kind=kind, _q=quantities_fn,
                       **kwargs):
                return tracer.call(_name, _kind, _fn, (self,) + args, kwargs, None, _q)

            setattr(cls, meth, functools.wraps(original)(method))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = _wrap(tracer, name, kind, original, size_fn, quantities_fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


# ------------------------------------------------------------ per-layer metrics

_MATRIX_SIZES = (2, 4, 8, 16)
_NDIM_SIZES = (1, 2, 4, 8, 16)


class Totals(NamedTuple):
    calls: int
    seconds: float
    self_seconds: float
    quantities: dict


def _totals(agg: dict, name: str, size=None) -> Totals:
    """Sum the records of ``name`` (at matrix size ``size``) over parents."""
    calls, total, self_s, quantities = 0, 0.0, 0.0, {}
    for (_, rec_name, rec_size), (c, t, s, q) in agg.items():
        if rec_name != name or (size is not None and rec_size != size):
            continue
        calls += c
        total += t
        self_s += s
        for key, value in q.items():
            quantities[key] = quantities.get(key, 0) + value
    return Totals(calls, total, self_s, quantities)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Counts and ``.ms``/``self_ms``
    are totals over the pass; ``us_per_*``, ``ns_per_*`` and the per-size
    ``.ms.nN`` / ``.us.nN`` values are means per call or per unit of work."""

    def tot(name, size=None):
        return _totals(agg, name, size)

    write = tot("cli.write")
    simulate = tot("coupled_sim.simulate")
    to_csv = tot("coupled_sim.trajectory_to_csv")
    denoise = tot("diffusion_controller.full_denoise")
    scalar = tot("stability_analyzer.analytic_1d")
    load = tot("dataset_quality.load_demonstrations")
    region, chart = tot("svg.region_map"), tot("svg.line_chart")
    out = {
        "cli.parse_run_config.ms": tot("cli.parse_run_config").seconds * 1e3,
        "cli.write.ms": write.seconds * 1e3,
        "cli.bytes_out": write.quantities.get("bytes", 0),
        "coupled_sim.simulate.calls": simulate.calls,
        "coupled_sim.simulate.self_ms": simulate.self_seconds * 1e3,
        "coupled_sim.ns_per_step_state": _ratio(
            simulate.self_seconds * 1e9, simulate.quantities.get("step_states", 0)),
        "coupled_sim.diverged_runs": simulate.quantities.get("diverged", 0),
        "coupled_sim.classify_empirical.ms": tot("coupled_sim.classify_empirical").seconds * 1e3,
        "coupled_sim.trajectory_to_csv.ms": to_csv.seconds * 1e3,
        "coupled_sim.csv_rows": to_csv.quantities.get("rows", 0),
        "diffusion_controller.full_denoise.calls": denoise.calls,
        "diffusion_controller.full_denoise.ms": denoise.seconds * 1e3,
        "diffusion_controller.denoise_step.calls": tot("diffusion_controller.denoise_step").calls,
        "diffusion_controller.score.calls": tot("diffusion_controller.score").calls,
        "diffusion_controller.rng_draws": tot("diffusion_controller.rng").quantities.get("draws", 0),
        "stability_analyzer.analytic_1d.calls": scalar.calls,
        "stability_analyzer.analytic_1d.us_per_call": _ratio(scalar.seconds * 1e6, scalar.calls),
        "stability_analyzer.evaluate_sweep_cell.self_ms":
            tot("stability_analyzer.evaluate_sweep_cell").self_seconds * 1e3,
    }
    for n in _NDIM_SIZES:
        ndim = tot("stability_analyzer.analytic_ndim", n)
        out[f"stability_analyzer.analytic_ndim.ms.n{n}"] = _ratio(ndim.seconds * 1e3, ndim.calls)
    for fn in ("eig_sym", "invert", "is_positive_definite"):
        for n in _MATRIX_SIZES:
            prim = tot(f"matrixkit.{fn}", n)
            out[f"matrixkit.{fn}.us.n{n}"] = _ratio(prim.seconds * 1e6, prim.calls)
    out.update({
        "matrixkit.cholesky.calls": tot("matrixkit.cholesky").calls,
        "dataset_quality.load_demonstrations.us_per_record": _ratio(
            load.seconds * 1e6, load.quantities.get("records", 0)),
        "dataset_quality.estimate_gain.ms": tot("dataset_quality.estimate_gain").seconds * 1e3,
        "dataset_quality.estimate_covariance.ms":
            tot("dataset_quality.estimate_covariance").seconds * 1e3,
        "dataset_quality.quality_report.self_ms":
            tot("dataset_quality.quality_report").self_seconds * 1e3,
        "svg.region_map.ms": region.seconds * 1e3,
        "svg.line_chart.ms": chart.seconds * 1e3,
        "svg.bytes": region.quantities.get("bytes", 0) + chart.quantities.get("bytes", 0),
    })
    return out


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Mean of :func:`pass_metrics` over the traced passes. Every pass runs
    the same requests, so counts are identical and their mean is exact."""
    per_pass = [pass_metrics(agg) for agg in passes]
    if not per_pass:
        return {}
    return {key: math.fsum(m[key] for m in per_pass) / len(per_pass) for key in per_pass[0]}
