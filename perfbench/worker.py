"""Closed-loop client: one process, one client, one request at a time.

Usage: python3 worker.py PLAN.json RESULT.json

Imports ``stabkit.cli`` from the checkout's ``src``, runs the warm-up
requests (not timed), prints ``ready`` so the parent can time set-up, then
runs whole passes over the request pool. Each request is one or more
``stabkit.cli.main`` calls; the next request starts only when the previous
one has returned. Latency covers the calls only; hashing the response for
the determinism check happens after the clock stops.

Untraced plans run passes until ``seconds`` have elapsed. Traced plans run
one untraced pass, install the tracer, then traced passes until ``seconds``
have elapsed (at least one), so traced minus untraced pass time is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _invoke(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed response; keep serving requests
        traceback.print_exc()
        return "crash"


def run_request(call, request):
    """Run one request; return (latency s, exit codes, stdouts, stderrs)."""
    codes, stdouts, stderrs = [], [], []
    elapsed = 0.0
    for argv in request["calls"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            codes.append(call(argv))
            elapsed += time.perf_counter() - start
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    return elapsed, codes, stdouts, stderrs


def digest(codes, stdouts, outputs) -> str:
    h = hashlib.sha256(json.dumps([codes, stdouts]).encode("utf-8"))
    for path in outputs:
        try:
            with open(path, "rb") as handle:
                h.update(handle.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    from stabkit.cli import main as stab_main

    def untraced(argv):
        return _invoke(stab_main, argv)

    for request in plan["warmup"]:
        run_request(untraced, request)
    print("ready", flush=True)
    if plan["setup_only"]:
        return 0

    requests = plan["requests"]
    instances, first, passes = [], {}, []
    tracer = None
    call = untraced

    def run_pass(traced: bool):
        index = len(passes)
        if tracer is not None:
            tracer.begin_pass()
        start = time.perf_counter()
        for request in requests:
            if tracer is not None:
                tracer.request = f"{index}:{request['id']}"
            latency, codes, stdouts, stderrs = run_request(call, request)
            instances.append([request["id"], index, latency, codes,
                              digest(codes, stdouts, request["outputs"])])
            first.setdefault(request["id"], {"stdout": stdouts, "stderr": stderrs})
        passes.append({"wall": time.perf_counter() - start, "traced": traced})

    missing = []
    if plan["trace"]:
        import tracing

        run_pass(False)
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

        def call(argv):  # one request-level span per CLI command
            return tracer.call(f"cli.{argv[0]}", tracing.SPAN, _invoke, (stab_main, argv), {})

    start = time.perf_counter()
    while True:
        run_pass(tracer is not None)
        if time.perf_counter() - start >= plan["seconds"]:
            break

    result = {
        "instances": instances,
        "first": first,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.passes)
        result["missing_targets"] = missing
        result["spans"] = sum(1 for s in tracer.spans if s is not None)
        tracer.dump(plan["spans_path"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
