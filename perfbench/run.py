"""helson-lab benchmark: time to a certified result for four CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lp-certify --seed 7 --seconds 40 --trace 0

Each repetition runs in a fresh worker process (``worker.py``), one at a
time, so that set-up and peak memory are measured per run of the lab.  A
repetition starts only while it is expected to end within RUN_SLACK times
``--seconds``, so a run measures close to ``--seconds`` and never much more;
the reported value of each metric is the median over repetitions.  Extra
set-up-only workers, under the same limit, bring ``setup_s`` up to
SETUP_SAMPLES samples.

With ``--trace 0`` the end-to-end metrics are reported (tracing off).  With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the traced
minus the untraced median wall time.  Every repetition's artifacts are
checked and hashed; all repetitions of a run, traced or not, must write
byte-identical artifacts (manifests compared without their wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import ACCEPTANCE_CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RUN_SLACK = 1.1  # a repetition may end at most this share of --seconds into a run
RUN_DEADLINE_S = 170.0  # a worker still running at this point of a run is killed
RUN_BUDGET_S = 150.0  # no repetition is expected to end past this point of a run

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"gauss.{fn}.s": "s" for fn in (
        "simulate", "spectral_process", "gaussianity_test", "estimate_spectral",
        "moment_report", "increment_dependence_test")},
    "gauss.simulate.phasors": "count",
    "gauss.spectral_process.phasors": "count",
    "gauss.gaussianity_test.phasors": "count",
    "gauss.gaussianity_test.boot_convolutions": "count",
    "linprog.lp_solve.calls": "count",
    "linprog.lp_solve.s": "s",
    "linprog.lp_solve.rows": "count",
    "linprog.lp_solve.cols": "count",
    "linprog.lp_solve.nnz": "count",
    "linprog.lp_solve.iterations": "count",
    "linprog.lp_solve.gap_failures": "count",
    "mela.solve_mela.calls": "count",
    "mela.solve_mela.self_s": "s",
    "projector.approx_indicator.calls": "count",
    "projector.approx_indicator.self_s": "s",
    "projector.projector_series.s": "s",
    "projector.helson_constant.s": "s",
    "projector.helson_constant.scan_entries": "count",
    "drury.mix_drury.s": "s",
    "drury.mix_drury.terms": "count",
    "drury.DruryFunction.max_off_basis.s": "s",
    "torus.SparseTrigPoly.evaluate.calls": "count",
    "torus.SparseTrigPoly.evaluate.s": "s",
    "torus.SparseTrigPoly.evaluate.term_points": "count",
    "torus.l1_norm_monte_carlo.s": "s",
    "torus.validate.s": "s",
    "riesz.RieszProductSpec.s": "s",
    "riesz.full_support.s": "s",
    "riesz.full_support.terms": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"acceptance.{fn}.s": "s" for fn in ACCEPTANCE_CHECKS},
    "trace.overhead_s": "s",
}


def environment() -> Dict[str, object]:
    """Machine and library record; BLAS threads are left at the user default."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS uses nproc)"),
        "HELSON_LAB_THREADS": os.environ.get("HELSON_LAB_THREADS", "unset (helson-lab uses nproc)"),
    }


def spawn(workload: str, seed: int, rep_dir: str, traced: bool = False,
          setup_only: bool = False, timeout: float = RUN_DEADLINE_S) -> Optional[dict]:
    """Run one worker process; its record, with setup_s, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), rep_dir]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"worker killed after {timeout:.0f} s: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}: {' '.join(cmd)}\n{proc.stderr}", file=sys.stderr)
        return None
    with open(os.path.join(rep_dir, "result.json")) as fh:
        record = json.load(fh)
    record["setup_s"] = record["first_call_at"] - spawned_at
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    """Repetitions for about `seconds` (alternating untraced/traced when tracing)."""
    reps: List[dict] = []
    costs: List[float] = []  # spawn to exit of each repetition
    crashed = 0
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    limit = min(RUN_SLACK * seconds, RUN_BUDGET_S)

    def fits(cost: float) -> bool:
        return time.monotonic() - start + cost <= limit

    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.monotonic()
        record = spawn(workload, seed, os.path.join(run_dir, f"rep{len(reps)}"), traced,
                       timeout=deadline - began)
        if record is None:
            crashed += 1
            break
        reps.append(record)
        costs.append(time.monotonic() - began)
        if len(reps) >= 1 + trace and not fits(statistics.mean(costs)):
            break
    setups = [r["setup_s"] for r in reps]
    while not crashed and len(setups) < SETUP_SAMPLES and fits(statistics.mean(setups)):
        record = spawn(workload, seed, os.path.join(run_dir, f"setup{len(setups)}"), setup_only=True,
                       timeout=deadline - time.monotonic())
        if record is None:
            crashed += 1
            break
        setups.append(record["setup_s"])
    return {"reps": reps, "setups": setups, "crashed": crashed}


def verdicts(result: dict) -> List[tuple]:
    """Every checked result of the run: the workload's checks per repetition,
    one determinism check per repetition after the first, one per crash."""
    out = []
    reps = result["reps"]
    for i, rep in enumerate(reps):
        out += [(f"rep {i}: {label}", ok) for label, ok in rep["checks"]]
        if i:
            out.append((f"rep {i}: artifacts identical to rep 0", rep["digest"] == reps[0]["digest"]))
    out += [("worker process completed", False)] * result["crashed"]
    return out


def metrics(result: dict, trace: bool) -> Dict[str, float]:
    reps = result["reps"]
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        out = {k: statistics.median(r[k] for r in plain) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        out["setup_s"] = statistics.median(result["setups"])
        return out
    traced = [r for r in reps if r["traced"]]
    out = {}
    for name in PER_LAYER:
        out[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "helson_lab", "cli.py")):
        print(f"no helson_lab sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    checks = verdicts(result)
    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"FAILED {label}")
    if not result["reps"] or (args.trace and len({r["traced"] for r in result["reps"]}) < 2):
        print("no complete repetition; no metrics", file=sys.stderr)
        return 1

    values = metrics(result, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    env = environment()
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"repetitions: {len(result['reps'])} (traced {sum(r['traced'] for r in result['reps'])}), "
          f"setup samples: {len(result['setups'])}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    share = len(failed) / len(checks)
    print(f"  failed_share = {share:.6g} ratio ({len(failed)} of {len(checks)} checked results)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
