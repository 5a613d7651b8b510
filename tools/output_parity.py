"""Check that two stabkit checkouts write byte-identical outputs.

``hash`` runs every request of the perfbench pools (simulate-mix,
sweep-region and analyze-gate, warm-ups included) for the given seeds
through ``stabkit.cli.main`` of one checkout, and writes one digest per
part of each request: each call's exit code and the SHA-256 of its stdout
and stderr, and the SHA-256 of each output file, by file name.
``compare`` reads two such files and lists, per request, the parts whose
digests differ; it exits 1 if any do.

Run from the root of a stabkit checkout; the pools come from this
checkout's ``perfbench/workloads.py``, the code under test from ``--root``:

    python3 tools/output_parity.py hash --root PARENT --seeds 5 77 --out parent.json
    python3 tools/output_parity.py hash --root . --seeds 5 77 --out change.json
    python3 tools/output_parity.py compare parent.json change.json

Both ``hash`` runs must use the same ``--work`` directory (the default is
fixed), because input and output paths can appear in what a request
prints.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_WORK = os.path.join(tempfile.gettempdir(), "stabkit-output-parity")


def _run_call(main, argv):
    """One CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare, not a stop
            code = f"crash: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def request_digests(main, request) -> dict:
    """The digest of each part of one request, by part name."""
    parts = {}
    for index, argv in enumerate(request["calls"]):
        code, out, err = _run_call(main, argv)
        parts[f"call {index} exit"] = code
        parts[f"call {index} stdout"] = _sha256(out.encode("utf-8"))
        parts[f"call {index} stderr"] = _sha256(err.encode("utf-8"))
    for path in request["outputs"]:
        try:
            with open(path, "rb") as handle:
                digest = _sha256(handle.read())
        except OSError:
            digest = "<missing>"
        parts[os.path.basename(path)] = digest
    return parts


def hash_checkout(root: str, seeds, work: str) -> dict:
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    import workloads
    from stabkit.cli import main

    digests = {}
    cwd = os.getcwd()
    try:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                pool_dir = os.path.join(work, f"{workload}-{seed}")
                shutil.rmtree(pool_dir, ignore_errors=True)
                pool = workloads.build(workload, seed, pool_dir)
                os.chdir(pool_dir)
                for kind, requests in (("warmup", pool.warmup), ("request", pool.requests)):
                    for index, request in enumerate(requests):
                        key = f"{workload}/{seed}/{kind}/{index}"
                        digests[key] = request_digests(main, request)
    finally:
        os.chdir(cwd)
    return digests


def compare(first: dict, second: dict) -> list[str]:
    """``request: part`` for every part whose digest differs or that only
    one file has."""
    differing = []
    for key in sorted(first.keys() | second.keys()):
        ours, theirs = first.get(key, {}), second.get(key, {})
        parts = sorted(ours.keys() | theirs.keys())
        differing += [f"{key}: {part}" for part in parts if ours.get(part) != theirs.get(part)]
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_hash = sub.add_parser("hash", help="digest every request's parts in one checkout")
    p_hash.add_argument("--root", required=True, help="checkout whose src/stabkit runs")
    p_hash.add_argument("--seeds", type=int, nargs="+", required=True)
    p_hash.add_argument("--out", required=True)
    p_hash.add_argument("--work", default=DEFAULT_WORK)
    p_cmp = sub.add_parser("compare", help="list the request parts whose digests differ")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "hash":
        digests = hash_checkout(args.root, args.seeds, args.work)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
        print(f"{len(digests)} requests hashed")
        return 0
    with open(args.first, "r", encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, "r", encoding="utf-8") as handle:
        second = json.load(handle)
    differing = compare(first, second)
    for part in differing:
        print(f"differs: {part}")
    print(f"{len(differing)} parts differ over {len(first.keys() | second.keys())} requests")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
