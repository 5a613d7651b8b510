"""Benchmark of the ``stab`` command line: three seeded workloads, driven as
a closed loop by a single client in one worker process.

Run from the root of a stabkit checkout:

    python3 perfbench/run.py --workload simulate-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced pass
time). Every response is checked against a numpy reference
(``reference.py``). The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and a fuller record is written to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh interpreters timed for set-up on top of the measured worker itself;
# set-up time is their median.
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150.0

# Unit of work behind work_items_per_s, per workload.
WORK_ITEM = {
    "simulate-mix": ("steps_per_s", "steps/s"),
    "sweep-region": ("cells_per_s", "cells/s"),
    "analyze-gate": ("records_per_s", "records/s"),
}

class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(plan: dict, work: str, name: str):
    """Run the worker on ``plan``; return (seconds until it reported ready,
    its result or None for a set-up-only plan)."""
    plan_path = os.path.join(work, f"{name}.plan.json")
    result_path = os.path.join(work, f"{name}.result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    command = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=work) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchmarkError(f"worker did not start (said {line.strip()!r})")
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    if plan["setup_only"]:
        return setup, None
    with open(result_path, "r", encoding="utf-8") as handle:
        return setup, json.load(handle)


def metadata(root: str) -> dict:
    """Versions and machine facts recorded with every result."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "stabkit", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    try:
        pytest_benchmark = importlib.metadata.version("pytest-benchmark")
    except importlib.metadata.PackageNotFoundError:
        pytest_benchmark = "not installed"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            models = [ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pytest_benchmark": pytest_benchmark,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def validate(pool, result) -> dict:
    """Check every response; count failures, known defects, work and agreement."""
    first_seen = {}
    for rid, _, _, codes, digest in result["instances"]:
        first_seen.setdefault(rid, (codes, digest))
    outcomes = {}
    for request in pool.requests:
        rid = request["id"]
        if rid in first_seen:
            stdouts = result["first"][str(rid)]["stdout"]
            outcomes[rid] = reference.check(request["spec"], first_seen[rid][0], stdouts)
    failed = known = flagged = work = compared = agreed = 0
    problems = []
    for rid, pass_index, _, _, digest in result["instances"]:
        outcome = outcomes[rid]
        bad = list(outcome.problems)
        if digest != first_seen[rid][1]:
            bad.append("response differs from the first response to the same request")
        if bad:
            failed += 1
            if len(problems) < 20:
                kind = pool.requests[rid]["kind"]
                stderr = " | ".join(e.strip().splitlines()[-1] for e in
                                    result["first"][str(rid)]["stderr"] if e.strip())
                problems.append(f"request {rid} ({kind}) pass {pass_index}: {'; '.join(bad)}"
                                + (f" [stderr: {stderr}]" if stderr else ""))
        known += bool(outcome.known_defects)
        flagged += bool(bad or outcome.known_defects)
        work += outcome.work
        compared += outcome.compared
        agreed += outcome.agreed
    defects = sorted({d for o in outcomes.values() for d in o.known_defects})
    return {"failed": failed, "known_defect_requests": known, "flagged": flagged, "work": work,
            "compared": compared, "agreed": agreed, "problems": problems,
            "known_defects": defects[:20]}


def end_to_end(latencies, pass_walls, work_per_pass, setup_samples, peak_rss_kb) -> dict:
    """Latency quantiles pool every request of the run; throughput is the
    median over passes, so a burst of machine noise moves one pass only."""
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    per_pass = len(latencies) / len(pass_walls)
    return {
        "setup_s": statistics.median(setup_samples),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_p90_ms": p90 * 1e3,
        "req_per_s": statistics.median(per_pass / wall for wall in pass_walls),
        "work_items_per_s": statistics.median(work_per_pass / wall for wall in pass_walls),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def run(args, root: str, work: str) -> dict:
    pool = workloads.build(args.workload, args.seed, work)
    strip = [{"id": r["id"], "calls": r["calls"], "outputs": r["outputs"]} for r in pool.requests]
    warmup = [{"calls": r["calls"], "outputs": r["outputs"]} for r in pool.warmup]
    plan = {"root": root, "warmup": warmup, "requests": strip, "seconds": args.seconds,
            "trace": args.trace, "setup_only": False,
            "spans_path": os.path.join(work, "spans.jsonl")}
    setup_samples = []
    if not args.trace:
        probe = dict(plan, requests=[], setup_only=True)
        for index in range(SETUP_PROBES):
            setup_samples.append(run_worker(probe, work, f"probe{index}")[0])
    setup, result = run_worker(plan, work, "main")
    setup_samples.append(setup)

    checked = validate(pool, result)
    instances = result["instances"]
    passes = result["passes"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 client, 1 worker process",
        "metadata": metadata(root), "requests_per_pass": len(pool.requests),
        "passes": passes, "attempted": len(instances), "failed": checked["failed"],
        "error_frac": checked["flagged"] / len(instances),
        "known_defect_requests": checked["known_defect_requests"],
        "known_defect_frac": checked["known_defect_requests"] / len(instances),
        "known_defects": checked["known_defects"], "problems": checked["problems"],
        "verdict_compared": checked["compared"],
        "verdict_agree_frac": (checked["agreed"] / checked["compared"]
                               if checked["compared"] else None),
    }
    if args.trace:
        untraced = passes[0]["wall"]
        traced = statistics.mean(p["wall"] for p in passes if p["traced"])
        metrics = dict(result["layers"])
        metrics["trace.overhead_ms"] = (traced - untraced) * 1e3
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        record["missing_targets"] = result["missing_targets"]
        record["spans"] = result["spans"]
    else:
        latencies = [i[2] for i in instances]
        by_kind: dict[str, list[float]] = {}
        for rid, _, latency, _, _ in instances:
            by_kind.setdefault(pool.requests[rid]["kind"], []).append(latency * 1e3)
        metrics = end_to_end(latencies, [p["wall"] for p in passes],
                             checked["work"] / len(passes), setup_samples,
                             result["peak_rss_kb"])
        p90 = metrics["req_p90_ms"] / 1e3
        record.update({
            "setup_samples_s": setup_samples,
            "latency_samples": len(latencies),
            "samples_beyond_p90": sum(lat > p90 for lat in latencies),
            "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
            WORK_ITEM[args.workload][0]: metrics["work_items_per_s"],
        })
    record["metrics"] = metrics
    record["units"] = metric_units("per_layer" if args.trace else "end_to_end")
    return record


def report(record: dict):
    """Print every metric by name and unit, then the fuller statistics."""
    units = record["units"]
    print(f"# stabkit benchmark  workload={record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  ({record['load']})")
    print("# " + json.dumps(record["metadata"], sort_keys=True))
    for name, value in record["metrics"].items():
        print(f"{name:<56} {value:>16.6g} {units[name]}")
    attempted = record["attempted"]
    print(f"{'error_frac':<56} {record['error_frac']:>16.6g} ratio "
          f"(reference check: {record['failed']} failed + "
          f"{record['known_defect_requests']} known-defect of {attempted} requests)")
    print(f"{'known_defect_frac':<56} {record['known_defect_frac']:>16.6g} ratio")
    if record["verdict_agree_frac"] is not None:
        print(f"{'verdict_agree_frac':<56} {record['verdict_agree_frac']:>16.6g} ratio "
              f"(denominator {record['verdict_compared']})")
    if not record["trace"]:
        alias, unit = WORK_ITEM[record["workload"]]
        print(f"{alias:<56} {record[alias]:>16.6g} {unit}")
        print(f"# {record['latency_samples']} latency samples, "
              f"{record['samples_beyond_p90']} beyond p90; "
              f"{len(record['passes'])} passes of {record['requests_per_pass']} requests")
    for line in record["problems"] + record["known_defects"]:
        print(f"# {line}")


def metric_units(section: str) -> dict:
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stabkit", "cli.py")):
        print("error: src/stabkit/cli.py not found; run from the root of a stabkit checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    base = os.path.join(HERE, ".work")
    work = os.path.join(base, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        record = run(args, root, work)
        results = os.path.join(base, "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            shutil.move(os.path.join(work, "spans.jsonl"), stem + ".spans.jsonl")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(record)
    units = record["units"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
