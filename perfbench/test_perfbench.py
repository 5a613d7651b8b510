"""Self-test of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _snapshot(pool, base):
    """Requests and input files with the work directory stripped out."""
    text = json.dumps([pool.requests, pool.warmup], sort_keys=True).replace(base, "<work>")
    files = {}
    for name in sorted(os.listdir(pool.inputs)):
        with open(os.path.join(pool.inputs, name), "rb") as handle:
            files[name] = handle.read()
    return text, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = _snapshot(workloads.build(workload, 7, str(tmp_path / "a")), str(tmp_path / "a"))
    b = _snapshot(workloads.build(workload, 7, str(tmp_path / "b")), str(tmp_path / "b"))
    c = _snapshot(workloads.build(workload, 8, str(tmp_path / "c")), str(tmp_path / "c"))
    assert a == b
    assert a[1] != c[1]
    assert a[0].count('"kind"') == c[0].count('"kind"')  # same stratified mix


def _respond(request):
    from stabkit.cli import main

    _, codes, stdouts, _ = worker.run_request(lambda argv: worker._invoke(main, argv), request)
    return codes, stdouts


def _first(pool, predicate):
    return next(r for r in pool.requests if predicate(r))


def _deterministic_sim(r):
    spec = r["spec"]
    return (spec["type"] == "simulate" and not spec["config"]["diffusion"]["stochastic"]
            and spec["config"]["coupling"]["mode"] == "expert-oracle"
            and len(spec["config"]["plant"]["A"]) == 1 and r["kind"].endswith("s1-a"))


def test_reference_flags_flipped_label_and_truncated_csv(tmp_path):
    pool = workloads.build("simulate-mix", 3, str(tmp_path))
    request = _first(pool, _deterministic_sim)
    codes, stdouts = _respond(request)
    spec = request["spec"]
    assert reference.check(spec, codes, stdouts).problems == []

    verdict = json.loads(stdouts[0])
    flipped = dict(verdict, label="unstable" if verdict["label"] == "stable" else "stable")
    bad = reference.check(spec, codes, [json.dumps(flipped), stdouts[1]])
    assert any("Euler map" in p for p in bad.problems)

    with open(spec["csv"], "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(spec["csv"], "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-5])
    assert any("rows" in p for p in reference.check(spec, codes, stdouts).problems)
    assert reference.check(spec, [0, 2], stdouts).problems  # unexpected exit code
    assert reference.check(spec, codes, ["not json", stdouts[1]]).problems


def test_reference_flags_corrupted_sweep_and_gate(tmp_path):
    pool = workloads.build("sweep-region", 3, str(tmp_path / "s"))
    request = _first(pool, lambda r: r["kind"] == "sweep-empirical")
    codes, stdouts = _respond(request)
    spec = request["spec"]
    assert reference.check(spec, codes, stdouts).problems == []
    with open(spec["csv"], "r", encoding="utf-8") as handle:
        text = handle.read()
    swapped = (text.replace(",stable,", ",@@,").replace(",unstable,", ",stable,")
               .replace(",@@,", ",unstable,"))
    with open(spec["csv"], "w", encoding="utf-8") as handle:
        handle.write(swapped)
    assert reference.check(spec, codes, stdouts).problems

    pool = workloads.build("analyze-gate", 3, str(tmp_path / "g"))
    request = _first(pool, lambda r: r["kind"] == "dataset-pass-n4")
    codes, stdouts = _respond(request)
    spec = request["spec"]
    assert reference.check(spec, codes, stdouts).problems == []
    report = json.loads(stdouts[0])
    report["k_hat"][0][0] += 1e-3
    assert any("k_hat" in p for p in reference.check(spec, codes, [json.dumps(report)]).problems)
    rankdef = _first(pool, lambda r: r["kind"].startswith("dataset-rankdef"))
    assert reference.check(rankdef["spec"], [0], ["{}"]).problems


def test_tracing_records_zero_calls_for_missing_targets(monkeypatch):
    import stabkit.diffusion_controller as dc

    monkeypatch.delattr(dc, "full_denoise")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("stabkit.coupled_sim", "no_such_function", "coupled_sim.none", tracing.SPAN, None, None),
    ))
    tracer = tracing.Tracer()
    saved = {m: dict(vars(sys.modules[m])) for m in list(sys.modules) if m.startswith("stabkit")}
    saved_method = dc.RngStream.standard_normal
    try:
        missing = tracing.install(tracer)
        tracer.begin_pass()
        dc.RngStream(1).standard_normal(3)
    finally:
        for name, attrs in saved.items():
            vars(sys.modules[name]).update(attrs)
        dc.RngStream.standard_normal = saved_method
    assert "stabkit.diffusion_controller.full_denoise" in missing
    assert "stabkit.coupled_sim.no_such_function" in missing
    metrics = tracing.layer_metrics(tracer.passes)
    assert metrics["diffusion_controller.full_denoise.calls"] == 0
    assert metrics["diffusion_controller.rng_draws"] == 3


def _bench(cwd, *args, timeout=120):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_finishes_in_seconds(trace):
    start = time.perf_counter()
    done = _bench(ROOT, "--workload", "analyze-gate", "--seed", "1", "--seconds", "0.1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 60
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench(str(tmp_path), "--workload", "simulate-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
