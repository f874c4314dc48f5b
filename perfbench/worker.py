"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED REP_DIR [--trace] [--setup-only]

Imports helson_lab from ``src/`` of the checkout that holds this file,
writes the seeded inputs into REP_DIR, runs the workload's CLI calls
in-process through ``helson_lab.cli.main``, checks the artifacts and writes
``result.json`` (and, when traced, ``spans.json``) into REP_DIR.  The
process start-up, the imports and the input generation are the set-up; the
parent times them from its spawn to ``first_call_at`` (CLOCK_MONOTONIC,
shared by all processes on Linux).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from helson_lab import cli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest_outputs(root: str = "out") -> dict:
    """sha256 of every artifact; manifests are hashed without their wall time."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            if fname == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("wall_time_s", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            out[path] = hashlib.sha256(data).hexdigest()
    return dict(sorted(out.items()))


def run_rep(workload: str, seed: int, traced: bool, setup_only: bool = False) -> dict:
    """Run one repetition in the current directory and return its record."""
    spec = WORKLOADS[workload]
    calls = spec.prepare(seed)
    record = {"workload": workload, "seed": seed, "traced": traced}
    tracer = uninstall = None
    if traced:
        tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}")
        uninstall = tracer.install()
    record["first_call_at"] = time.monotonic()
    if setup_only:
        return record
    codes = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    with open("cli.log", "w") as log, contextlib.redirect_stdout(log):
        for argv in calls:
            codes.append(cli.main(argv))
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - c0
    if uninstall is not None:
        uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [(f"exit code of {argv[0]} is 0 (got {code})", code == 0) for argv, code in zip(calls, codes)]
    checks += spec.check()
    record["checks"] = checks
    record["digest"] = digest_outputs()
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        with open("spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("rep_dir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.rep_dir, exist_ok=True)
    os.chdir(args.rep_dir)
    record = run_rep(args.workload, args.seed, args.trace, args.setup_only)
    shutil.rmtree("out", ignore_errors=True)  # artifacts are checked and hashed
    with open("result.json", "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
