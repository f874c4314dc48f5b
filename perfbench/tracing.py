"""Span wrappers around helson_lab's public functions, installed from outside.

Nothing under ``src/`` knows about tracing.  ``install`` replaces each traced
function on every helson_lab module that binds it (``cli`` binds
``solve_mela`` at import, ``projector`` looks ``lp_solve`` up on ``linprog``
at call time, ...) and each traced method on its class, and returns a
function that puts the originals back.  Spans are kept in memory as
``(name, start, end, parent, run_id)`` and written out by the caller at the
end of the run; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

MODULES = ("cli", "acceptance", "mela", "projector", "drury", "torus", "riesz", "gauss", "linprog")
ACCEPTANCE_CHECKS = (
    "check_mela_bound",
    "check_drury_pipeline",
    "check_riesz_identities",
    "check_riesz_oracle",
    "check_projector_telescope",
    "check_a_norm_growth",
    "check_gaussian_discrimination",
    "check_moment_machinery",
    "check_helson_sanity",
)


def _lp_counts(result, c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, **_) -> Dict[str, float]:
    mats = [np.asarray(a) for a in (A_eq, A_ub) if a is not None]
    return {
        "rows": sum(a.shape[0] if a.ndim == 2 else 1 for a in mats),
        "cols": np.asarray(c).size,
        "nnz": sum(int(np.count_nonzero(a)) for a in mats),
        "iterations": result.iterations,
        "gap_failures": int(result.duality_gap > 1e-8 * (1.0 + abs(result.objective))),
    }


def _spectral_process_phasors(result, model, thresholds, **_) -> Dict[str, float]:
    below = int(np.sum(model.spectrum.frequencies() < float(thresholds[-1])))
    return {"phasors": below * model.T_len}


def _gaussianity_counts(result, seq, k_max, freqs=None, n_boot=400, **_) -> Dict[str, float]:
    return {
        "phasors": (len(freqs) if freqs is not None else 0) * len(seq),
        "boot_convolutions": n_boot * k_max * len(result.atom_powers),
    }


def _evaluate_points(result, poly, points, **_) -> Dict[str, float]:
    return {"term_points": len(poly.coeffs) * np.shape(points)[0]}


# (module, attribute path, span name, counter) for every traced name; a
# counter maps (result, *args, **kwargs) to counts added under the span name
TARGETS = [
    ("cli", "main", "cli", None),
    ("gauss", "simulate", "gauss.simulate",
     lambda r, model, **_: {"phasors": len(model.spectrum.atoms) * model.T_len}),
    ("gauss", "spectral_process", "gauss.spectral_process", _spectral_process_phasors),
    ("gauss", "gaussianity_test", "gauss.gaussianity_test", _gaussianity_counts),
    ("gauss", "estimate_spectral", "gauss.estimate_spectral", None),
    ("gauss", "moment_report", "gauss.moment_report", None),
    ("gauss", "increment_dependence_test", "gauss.increment_dependence_test", None),
    ("linprog", "lp_solve", "linprog.lp_solve", _lp_counts),
    ("mela", "solve_mela", "mela.solve_mela", None),
    ("projector", "approx_indicator", "projector.approx_indicator", None),
    ("projector", "projector_series", "projector.projector_series", None),
    ("projector", "helson_constant", "projector.helson_constant",
     lambda est, *a, **k: {"scan_entries": (2 * est.g_range + 1) * len(est.K)}),
    ("drury", "mix_drury", "drury.mix_drury", lambda d, *a, **k: {"terms": len(d.psi.coeffs)}),
    ("drury", "DruryFunction.max_off_basis", "drury.DruryFunction.max_off_basis", None),
    ("torus", "SparseTrigPoly.evaluate", "torus.SparseTrigPoly.evaluate", _evaluate_points),
    ("torus", "l1_norm_monte_carlo", "torus.l1_norm_monte_carlo", None),
    ("torus", "_check_distinct", "torus.validate", None),
    ("riesz", "RieszProductSpec.__post_init__", "riesz.RieszProductSpec", None),
    ("riesz", "full_support", "riesz.full_support", lambda r, *a, **k: {"terms": len(r[0])}),
] + [("acceptance", fn, f"acceptance.{fn}", None) for fn in ACCEPTANCE_CHECKS]


class Tracer:
    """In-memory span recorder; safe for the CLI's worker threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []  # [name, start, end, parent index or None, run_id]
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not hasattr(self._local, "stack"):
                self._local.stack = []
            stack = self._local.stack
            # a span opened on a pool thread belongs to the open top-level span
            parent = stack[-1] if stack else self._root
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            if parent is None:
                self._root = idx
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][2] = time.perf_counter()
                if self._root == idx:
                    self._root = None
            if counter is not None:
                counts = counter(result, *args, **kwargs)
                with self._lock:
                    for key, value in counts.items():
                        self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def count_bytes(self, fn: Callable) -> Callable:
        """Wrap cli._atomic_write: count bytes written, record no span."""

        @functools.wraps(fn)
        def counted(path, data):
            with self._lock:
                self.counts["cli.bytes_written"] += len(data.encode())
            return fn(path, data)

        return counted

    def install(self) -> Callable[[], None]:
        """Wrap every target where its callers bind it; returns the undo function."""
        mods = {m: importlib.import_module(f"helson_lab.{m}") for m in MODULES}
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for mod_name, path, span, counter in TARGETS:
            owner = mods[mod_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                patch(owner, attr, self.wrap(span, owner.__dict__[attr], counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span, original, counter)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, wrapped)
        patch(mods["cli"], "_atomic_write", self.count_bytes(mods["cli"]._atomic_write))

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it that its children cover."""
        children: Dict[int, List[int]] = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for s, e in sorted((self.spans[c][1], self.spans[c][2]) for c in children[i]):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(end - start - covered)
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """Per span name: calls, total seconds, self seconds; plus the counters."""
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        out.update(self.counts)
        return dict(out)
