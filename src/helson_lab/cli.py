"""Command-line driver: experiment dispatch, artifacts, and manifests.

Every subcommand writes JSON results (and CSV tables where they are
plot-shaped) into --out, plus a manifest recording the resolved
configuration, tool version, and wall time.  Result files are deterministic
for a fixed config and seed; only the manifest carries timing.  Files are
written atomically (temp + rename).  Exit codes: 0 ok, 1 a certificate or
validation embedded in the run is invalid, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import BLAS_THREADS, __version__
from . import gauss as G
from .acceptance import results_json, run_acceptance
from .drury import mix_drury
from .errors import ConfigParse, HelsonLabError, MomentCheckFailed, OutOfRange
from .mela import SignedGridMeasure, solve_mela
from .projector import helson_constant, projector_series
from .riesz import RieszProductSpec, full_support, rigidity_search
from .tasks import run_tasks, worker_count
from .torus import (
    AtomicCircleMeasure,
    FiniteFrequencySet,
    l1_norm_monte_carlo,
    load_json,
)

_SWEEP_DEFAULT = "0.5,0.3679,0.1353,0.05,0.01832,0.01,0.00248,0.001"
# gauss-sim's report sections, longest first (traced at 64 atoms, T = 2e5)
_GAUSS_SUBMIT_ORDER = ("spectral", "increments", "gaussianity", "moments")


def _atomic_write(path: str, data: str) -> None:
    # one temp name per process and thread, so concurrent runs never share it
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: List[str], rows: List[List]) -> None:
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _apply_config(args: argparse.Namespace) -> None:
    """Override flags from --config, with the flags' own types and choices."""
    if not getattr(args, "config", None):
        return
    try:
        overrides = load_json(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot parse config file {args.config}: {exc}")
    if not isinstance(overrides, dict):
        raise ConfigParse(f"config file {args.config} must hold a JSON object")
    fields = {
        a.dest: (bool if a.nargs == 0 else a.type or str, a.choices)
        for a in args._parser._actions
        if a.dest not in ("help", "config")
    }
    for key, value in overrides.items():
        if key not in fields:
            raise ConfigParse(f"unknown config key: {key}")
        want, choices = fields[key]
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ConfigParse(f"config key {key} expects {want.__name__}, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigParse(f"config key {key} must be one of {list(choices)}, got {value!r}")
        setattr(args, key, value)


def _manifest(args: argparse.Namespace, command: str, wall: float, outputs: List[str]) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "out", "config")
        and not k.startswith("_")
        and v is not None
    }
    return {
        "command": command,
        "params": params,
        "output_dir": args.out,
        "version": __version__,
        "wall_time_s": round(wall, 3),
        "outputs": sorted(outputs),
        "threads": worker_count(),
        "blas_threads": BLAS_THREADS,
    }


def _load_input(path: str, cls):
    """cls.from_json_dict of the JSON file at path; a wrongly shaped file is a ConfigParse naming it."""
    data = load_json(path)
    try:
        if cls is SignedGridMeasure and "measure" in data:  # the mela.json that `mela` writes
            data = data["measure"]
        return cls.from_json_dict(data)
    except (KeyError, TypeError) as exc:
        raise ConfigParse(f"input file {path} is not a {cls.__name__}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_mela(args) -> Tuple[int, List[str]]:
    outputs = []
    status = 0
    if args.sweep is not None:
        eps_list = sorted(
            (float(tok) for tok in args.sweep.split(",") if tok.strip()), reverse=True
        )
        tasks = {e: partial(solve_mela, e, args.grid, args.kmax) for e in eps_list}
        solved = run_tasks(tasks, tasks)
        rows = []
        for eps in eps_list:
            cert = solved[eps][1]
            rows.append([eps, cert.tv, cert.mela_bound, cert.valid])
            if not cert.valid:
                status = 1
        path = os.path.join(args.out, "mela_sweep.csv")
        _write_csv(path, ["epsilon", "tv", "mela_bound", "valid"], rows)
        outputs.append(path)
        print(f"mela sweep over {len(rows)} epsilons -> {path}")
        for eps, tv, bound, valid in rows:
            print(f"  eps={eps:<10g} tv={tv:8.4f}  bound={bound:8.4f}  {'ok' if valid else 'INVALID'}")
    else:
        measure, cert = solve_mela(args.epsilon, args.grid, args.kmax)
        path = os.path.join(args.out, "mela.json")
        _write_json(path, {"measure": measure.to_json_dict(), "certificate": cert.to_json_dict()})
        outputs.append(path)
        print(
            f"mela eps={args.epsilon}: tv={cert.tv:.4f} <= bound {cert.mela_bound:.4f}, "
            f"{len(measure.locations())} atoms, {'valid' if cert.valid else 'INVALID'}"
        )
        if not cert.valid:
            status = 1
    return status, outputs


def _cmd_drury(args) -> Tuple[int, List[str]]:
    sigma = _load_input(args.sigma, SignedGridMeasure) if args.sigma else solve_mela(args.epsilon)[0]
    d = mix_drury(args.n, sigma, args.epsilon)
    mc, se = l1_norm_monte_carlo(d, 8000, seed=args.seed)
    basis = float(d._pruned_moments()[0])  # every basis point -e_j carries the stratum-0 moment
    basis_values = [[list(e), basis, 0.0] for e in d.basis_points()]
    report = {
        "basis_values": basis_values,
        "max_off_basis": d.max_off_basis(),
        "a_norm_bound": d.a_norm_bound,
        "mc_l1": mc,
        "mc_l1_se": se,
        "sigma_tv": d.a_norm_bound,  # mix_drury's bound is sigma's total variation
    }
    path = os.path.join(args.out, "drury.json")
    _write_json(path, {"function": d.to_json_dict(), "report": report})
    print(
        f"drury n={args.n} eps={args.epsilon}: off-basis max {report['max_off_basis']:.4g}, "
        f"a-norm bound {d.a_norm_bound:.4f}, MC L1 {mc:.4f} (se {se:.4f})"
    )
    return 0, [path]


def _cmd_helson_constant(args) -> Tuple[int, List[str]]:
    K = _load_input(args.K, FiniteFrequencySet)
    est = helson_constant(K, g_range=args.grange, restarts=args.restarts, seed=args.seed)
    path = os.path.join(args.out, "helson_constant.json")
    _write_json(path, est.to_json_dict())
    print(
        f"helson-constant |K|={len(K)} g_range={args.grange}: "
        f"alpha_upper={est.alpha_upper:.6f} (argmax g={est.argmax_g})"
    )
    return 0, [path]


def _cmd_projector(args) -> Tuple[int, List[str]]:
    K = _load_input(args.K, FiniteFrequencySet)
    F = list(_load_input(args.F, FiniteFrequencySet).values())
    p_list = [float(tok) for tok in args.p.split(",") if tok.strip()]
    series_out = {}
    rows = []
    for p, series in zip(p_list, projector_series(K, F, p_list, args.kterms, args.degree)):
        series_out[str(p)] = [ind.to_json_dict() for ind in series]
        for ind in series:
            rows.append([p, ind.epsilon, ind.a_norm, ind.lp_objective])
    jpath = os.path.join(args.out, "projector_series.json")
    _write_json(jpath, series_out)
    cpath = os.path.join(args.out, "projector_growth.csv")
    _write_csv(cpath, ["p", "epsilon", "a_norm", "lp_objective"], rows)
    print(f"projector: {len(rows)} indicator stages over p in {p_list} -> {jpath}")
    for p, eps, a, obj in rows:
        print(f"  p={p:<4g} eps={eps:.3e}  a_norm={a:.4f}  lp_obj={obj:.4f}")
    return 0, [jpath, cpath]


def _cmd_riesz(args) -> Tuple[int, List[str]]:
    freqs = tuple(int(tok) for tok in args.freqs.split(",") if tok.strip())
    spec = RieszProductSpec(args.alpha, freqs)
    summary = {"alpha": args.alpha, "freqs": list(freqs)}
    if args.profile:  # refused before any file is written
        if args.profile < 1 or args.power < 1:
            raise OutOfRange(f"--profile and --power must be >= 1, got {args.profile} and {args.power}")
        g, ratio = rigidity_search(spec, args.profile)
        # the k-fold convolution peaks at the same point, at ratio ** k; (1, 0.0) means no point in range
        argm = 0 if (g, ratio) == (1, 0.0) else g
        summary["power_profile"] = {"k": args.power, "m_range": args.profile,
                                    "max": ratio ** args.power, "argmax_m": argm}
        summary["rigidity"] = {"g": g, "ratio": ratio}
    ms, coeffs = full_support(spec)
    summary["support_size"] = int(len(ms))
    cpath = os.path.join(args.out, "riesz_support.csv")
    _write_csv(cpath, ["m", "coeff"], [[int(m), float(c)] for m, c in zip(ms, coeffs)])
    jpath = os.path.join(args.out, "riesz.json")
    _write_json(jpath, summary)
    print(f"riesz alpha={args.alpha} N={len(freqs)}: support {len(ms)} -> {cpath}")
    if args.profile:
        pp = summary["power_profile"]
        print(f"  conv power k={pp['k']}: max {pp['max']:.4g} at m={pp['argmax_m']}; "
              f"rigidity ratio {ratio:.4f} at g={g}")
    return 0, [cpath, jpath]


def _cmd_gauss_sim(args) -> Tuple[int, List[str]]:
    wanted = [tok.strip() for tok in args.report.split(",") if tok.strip()]
    for tok in wanted:
        if tok not in _GAUSS_SUBMIT_ORDER:
            raise ConfigParse(f"unknown report section: {tok}")
    spectrum = _load_input(args.spectrum, AtomicCircleMeasure)
    cls = G.RandomPhaseModel if args.model == "random-phase" else G.GaussianModel
    model = cls(spectrum=spectrum, T_len=args.len, seed=args.seed)
    seq = G.simulate(model)
    freqs = [float(l) for l in np.sort(spectrum.frequencies())]

    def increments() -> dict:
        # split the atoms at the median frequency into two disjoint windows,
        # passed inline: the test holds their only reference and frees them before its FFTs
        mid = freqs[len(freqs) // 2]
        ts = [freqs[0], mid + 1e-12, 1.0]
        return G.increment_dependence_test(G.spectral_process(model, ts), 0, 1, seed=args.seed).to_json_dict()

    # the sections only read seq, model and freqs, so they may run concurrently
    sections = {
        "moments": lambda: G.moment_report(seq, args.pmax).to_json_dict(),
        "spectral": lambda: [
            p.to_json_dict() for p in G.estimate_spectral(seq, min(50, args.len // 10))
        ],
        "gaussianity": lambda: G.gaussianity_test(seq, 3, freqs=freqs, model=model).to_json_dict(),
        "increments": increments,
    }
    todo = [k for k in sections if k in wanted and (k != "increments" or len(freqs) >= 2)]
    report: Dict[str, object] = {"model": args.model, "T_len": args.len, "seed": args.seed}
    report.update(run_tasks({k: sections[k] for k in todo}, [k for k in _GAUSS_SUBMIT_ORDER if k in todo]))
    jpath = os.path.join(args.out, "gauss_sim.json")
    _write_json(jpath, report)
    outputs = [jpath]
    if args.dump:
        dpath = os.path.join(args.out, "gauss_series.csv")
        _write_csv(dpath, ["n", "re", "im"], [[i, z.real, z.imag] for i, z in enumerate(seq)])
        outputs.append(dpath)
    bits = []
    if "moments" in wanted and 4 in report["moments"]["p_grid"]:
        bits.append(f"norm4={report['moments']['lp_norms'][1]:.4f}")
    if "gaussianity" in wanted:
        bits.append(f"gaussian_consistent={report['gaussianity']['gaussian_consistent']}")
    print(f"gauss-sim {args.model} T={args.len}: " + (", ".join(bits) if bits else "done"))
    return 0, outputs


def _cmd_verify_all(args) -> Tuple[int, List[str]]:
    payload, runtimes = run_acceptance(args.seed)
    path = os.path.join(args.out, "acceptance.json")
    _atomic_write(path, results_json(payload))
    for key in sorted(payload["checks"], key=int):
        c = payload["checks"][key]
        print(f"[criterion {key}] {'PASS' if c['passed'] else 'FAIL'} {c['name']} ({runtimes[key]:.1f}s)")
    print(f"[criterion 10] determinism: canonical bytes -> {path}")
    print("all passed" if payload["all_passed"] else "FAILURES present")
    return (0 if payload["all_passed"] else 1), [path]


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="helson-lab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--out", default="helson-lab-out", help="output directory")
        p.add_argument("--config", default=None, help="JSON file overriding flags")
        p.set_defaults(func=func, _parser=p)

    p = sub.add_parser("mela", help="minimal-tv moment measure")
    p.add_argument("--epsilon", type=float, default=0.1353)
    p.add_argument("--grid", type=int, default=240)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--sweep", nargs="?", const=_SWEEP_DEFAULT, default=None,
                   help="comma list of epsilons; emits CSV")
    common(p, _cmd_mela)

    p = sub.add_parser("drury", help="mixed near-indicator on Z^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sigma", default=None, help="mixing measure JSON (default: solve)")
    p.add_argument("--seed", type=int, default=0)
    common(p, _cmd_drury)

    p = sub.add_parser("helson-constant", help="upper estimate of the Helson constant")
    p.add_argument("--K", required=True, help="frequency set JSON")
    p.add_argument("--grange", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    common(p, _cmd_helson_constant)

    p = sub.add_parser("projector", help="near-indicator series and growth table")
    p.add_argument("--K", required=True, help="target frequency set JSON")
    p.add_argument("--F", required=True, help="avoided frequency set JSON")
    p.add_argument("--p", default="2,4,8")
    p.add_argument("--degree", type=int, default=128)
    p.add_argument("--kterms", type=int, default=3)
    common(p, _cmd_projector)

    p = sub.add_parser("riesz", help="lacunary product support and profiles")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--freqs", required=True, help="comma list of increasing frequencies")
    p.add_argument("--profile", type=int, default=None, help="search range for profiles")
    p.add_argument("--power", type=int, default=2)
    common(p, _cmd_riesz)

    p = sub.add_parser("gauss-sim", help="stationary sequence diagnostics")
    p.add_argument("--spectrum", required=True, help="atomic measure JSON")
    p.add_argument("--len", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=("gaussian", "random-phase"), default="gaussian")
    p.add_argument("--report", default="moments,spectral,gaussianity")
    p.add_argument("--pmax", type=int, choices=range(2, 33, 2), default=16)
    p.add_argument("--dump", action="store_true", help="also write the time series CSV")
    common(p, _cmd_gauss_sim)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    common(p, _cmd_verify_all)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        _apply_config(args)
        worker_count()  # fail fast on a malformed HELSON_LAB_THREADS
        os.makedirs(args.out, exist_ok=True)
        status, outputs = args.func(args)
        wall = time.perf_counter() - t0
        manifest = _manifest(args, args.command, wall, outputs)
        _write_json(os.path.join(args.out, "manifest.json"), manifest)
        return status
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MomentCheckFailed as exc:
        # the requested run produced data that fails its own validation
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except HelsonLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
