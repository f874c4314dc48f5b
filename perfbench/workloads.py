"""The benchmark's workloads: seeded inputs, CLI call sequences and result checks.

Each workload is what a lab user does: run one or more ``helson-lab``
subcommands on input files and wait for results whose certificates hold.
``prepare(seed)`` writes the input files into the current directory and
returns the CLI argument lists; ``check()`` reads the artifacts those calls
wrote there and returns one ``(label, ok)`` pair per checked result.  The
checks hold for every seed; a missing or corrupted artifact fails its check
instead of raising.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SEC_PI_8 = 1.0 / math.cos(math.pi / 8.0)

Check = Tuple[str, bool]

# gauss-spectral
GAUSS_ATOMS = 64
GAUSS_LEN = 200_000
GAUSS_MODELS = ("gaussian", "random-phase")

# lp-certify
MELA_LADDER = 8  # epsilons in the CLI's default --sweep ladder
ORBIT_POINTS = 104
K_STRIDE = 26
PROJECTOR_DEGREE = 64
PROJECTOR_STAGES = 3

ACCEPTANCE_CRITERIA = 9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int], List[List[str]]]
    check: Callable[[], List[Check]]


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _checked(label: str, predicate: Callable[[], bool]) -> Check:
    """Evaluate one check; an unreadable or malformed artifact fails it."""
    try:
        return label, bool(predicate())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{label}: {type(exc).__name__}: {exc}", False


def _separated_points(rng: np.random.Generator, count: int, gap: float) -> np.ndarray:
    """Sorted uniform circle points, redrawn until every circle gap is >= gap."""
    while True:
        pts = np.sort(rng.random(count))
        gaps = np.diff(np.append(pts, pts[0] + 1.0))
        if gaps.min() >= gap:
            return pts


# ---------------------------------------------------------------------------
# gauss-spectral
# ---------------------------------------------------------------------------

def _gauss_prepare(seed: int) -> List[List[str]]:
    rng = np.random.default_rng(seed)
    freqs = _separated_points(rng, GAUSS_ATOMS, 1.0 / (4 * GAUSS_ATOMS ** 2))
    weights = rng.uniform(0.5, 1.5, GAUSS_ATOMS)
    weights /= weights.sum()
    _write_json(
        "spectrum.json",
        {"atoms": [{"freq": float(f), "re": float(w), "im": 0.0} for f, w in zip(freqs, weights)]},
    )
    return [
        ["gauss-sim", "--spectrum", "spectrum.json", "--len", str(GAUSS_LEN),
         "--seed", str(seed), "--model", model,
         "--report", "moments,spectral,gaussianity,increments", "--out", f"out/gauss-{model}"]
        for model in GAUSS_MODELS
    ]


def _gauss_check() -> List[Check]:
    out: List[Check] = []
    for model in GAUSS_MODELS:
        path = f"out/gauss-{model}/gauss_sim.json"

        def l2_matches_lag0(path=path) -> bool:
            report = _load(path)
            l2 = report["moments"]["lp_norms"][0]
            lag0 = report["spectral"][0]
            return lag0["g"] == 0 and math.isclose(l2 * l2, lag0["re"], rel_tol=1e-9)

        def powers_finite(path=path) -> bool:
            powers = _load(path)["gaussianity"]["atom_powers"]
            return len(powers) == GAUSS_ATOMS and all(math.isfinite(p) for p in powers)

        out.append(_checked(f"gauss {model}: moment L2^2 equals spectral g=0", l2_matches_lag0))
        out.append(_checked(f"gauss {model}: atom powers finite", powers_finite))
    return out


# ---------------------------------------------------------------------------
# lp-certify
# ---------------------------------------------------------------------------

def golden_split(offset: float, degree: int) -> Tuple[List[float], List[float]]:
    """K and F from the rotated golden orbit: every K_STRIDE-th sorted point is in K.

    The first phase of the stride whose K points all sit at least
    1/(2 degree) from their orbit neighbours is used, so the projector's
    separation guard holds for every offset.
    """
    pts = sorted((k * GOLDEN + offset) % 1.0 for k in range(1, ORBIT_POINTS + 1))
    resolution = 1.0 / (2.0 * degree)

    def clear(i: int) -> bool:
        for j in (i - 1, (i + 1) % ORBIT_POINTS):
            d = abs(pts[i] - pts[j])
            if min(d, 1.0 - d) < resolution:
                return False
        return True

    for phase in range(K_STRIDE):
        idx = range(phase, ORBIT_POINTS, K_STRIDE)
        if all(clear(i) for i in idx):
            K = [pts[i] for i in idx]
            F = [p for i, p in enumerate(pts) if (i - phase) % K_STRIDE != 0]
            return K, F
    raise ValueError(f"no stride phase separates K from F at offset {offset}")


def _lp_prepare(seed: int) -> List[List[str]]:
    offset = float(np.random.default_rng(seed).random())
    K, F = golden_split(offset, PROJECTOR_DEGREE)
    _write_json("K.json", {"freqs": K})
    _write_json("F.json", {"freqs": F})
    return [
        ["mela", "--sweep", "--out", "out/mela"],
        ["projector", "--K", "K.json", "--F", "F.json", "--p", "2",
         "--degree", str(PROJECTOR_DEGREE), "--kterms", str(PROJECTOR_STAGES),
         "--out", "out/projector"],
    ]


def _lp_check() -> List[Check]:
    out: List[Check] = []

    def mela_rows() -> List[dict]:
        with open("out/mela/mela_sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    for i in range(MELA_LADDER):
        out.append(_checked(f"mela row {i} valid", lambda i=i: mela_rows()[i]["valid"] == "True"))

    def stage(i: int) -> bool:
        ind = _load("out/projector/projector_series.json")["2.0"][i]
        a_norm, objective = ind["a_norm"], ind["lp_objective"]
        return 1.0 - 1e-6 <= a_norm <= SEC_PI_8 * objective + 1e-6

    for i in range(PROJECTOR_STAGES):
        out.append(_checked(f"projector stage {i}: 1 <= a_norm <= sec(pi/8) lp_objective",
                            lambda i=i: stage(i)))
    return out


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _verify_prepare(seed: int) -> List[List[str]]:
    return [["verify-all", "--seed", str(seed), "--out", "out/verify"]]


def _verify_check() -> List[Check]:
    def passed(key: str) -> bool:
        payload = _load("out/verify/acceptance.json")
        return payload["checks"][key]["passed"] is True and payload["all_passed"] is True

    return [
        _checked(f"verify-all criterion {k} passed", lambda k=str(k): passed(k))
        for k in range(1, ACCEPTANCE_CRITERIA + 1)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauss-spectral",
            "dense exponential sums (synthesis, per-atom scans, re-synthesis) plus the "
            "Gaussianity bootstrap at 64 atoms x 2e5 samples; no LP or lattice work",
            _gauss_prepare,
            _gauss_check,
        ),
        Workload(
            "lp-certify",
            "HiGHS-bound: the mela epsilon sweep and three 645 x 1195 projector LPs on a "
            "rotated golden orbit; phasor and lattice work are negligible",
            _lp_prepare,
            _lp_check,
        ),
        Workload(
            "verify-all",
            "the acceptance gate end to end: Drury pipeline, Riesz and Helson checks, few-atom "
            "long-T synthesis and the degree-24 LP ladder; the only workload that runs the "
            "acceptance layer",
            _verify_prepare,
            _verify_check,
        ),
    )
}
