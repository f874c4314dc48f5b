"""Parent equality: pinned CLI runs against committed reference results.

Each case runs through cli.main, and its result files are compared with the
copies under tests/reference/<case>/ value by value: ints, strings, bools
and nulls must match exactly, floats to a relative 1e-12.  That allows
rounding across CPUs and BLAS kernels but no change in behaviour; byte
identity stays with CI's cmp steps.  A change that moves a reference on
purpose regenerates them with

    PYTHONPATH=src python tests/reference/regenerate.py

and lists every changed field in CHANGES.md.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from helson_lab.cli import main

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REL_TOL = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ALL_REPORTS = "moments,spectral,gaussianity,increments"

# case -> (argv with {inputs} for the input directory, result files)
CASES = {
    "verify-all": (["verify-all", "--seed", "7"], ["acceptance.json"]),
    "drury": (["drury", "--n", "6", "--epsilon", "0.01"], ["drury.json"]),
    "mela-sweep": (["mela", "--sweep"], ["mela_sweep.csv"]),
    "projector": (
        ["projector", "--K", "{inputs}/K32.json", "--F", "{inputs}/F32.json",
         "--p", "2,4", "--kterms", "3", "--degree", "24"],
        ["projector_series.json", "projector_growth.csv"],
    ),
    "helson-constant": (
        ["helson-constant", "--K", "{inputs}/K8.json", "--grange", "2000", "--restarts", "2"],
        ["helson_constant.json"],
    ),
    "riesz": (
        ["riesz", "--alpha", "0.5", "--freqs", "3,9,27", "--profile", "1000", "--power", "3"],
        ["riesz.json", "riesz_support.csv"],
    ),
    "gauss-gaussian": (
        ["gauss-sim", "--spectrum", "{inputs}/spec64.json", "--len", "200000", "--seed", "11",
         "--report", _ALL_REPORTS],
        ["gauss_sim.json"],
    ),
    "gauss-random-phase": (
        ["gauss-sim", "--spectrum", "{inputs}/spec64.json", "--len", "200000", "--seed", "11",
         "--model", "random-phase", "--report", _ALL_REPORTS],
        ["gauss_sim.json"],
    ),
}


def write_inputs(directory) -> None:
    """The cases' input files: the 32-point golden orbit split as K (every 4th point) and F,
    the fractional parts of sqrt(p) for the primes 2..19, and 64 atoms."""
    orbit = sorted((m * GOLDEN) % 1.0 for m in range(1, 33))
    with open(os.path.join(directory, "K32.json"), "w") as fh:
        json.dump({"freqs": orbit[::4]}, fh)
    with open(os.path.join(directory, "F32.json"), "w") as fh:
        json.dump({"freqs": [x for i, x in enumerate(orbit) if i % 4]}, fh)
    with open(os.path.join(directory, "K8.json"), "w") as fh:
        json.dump({"freqs": [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19)]}, fh)
    rng = np.random.default_rng(11)
    atoms = [{"freq": float(f), "re": float(w), "im": 0.0}
             for f, w in zip(rng.random(64), rng.uniform(0.5, 1.5, 64))]
    with open(os.path.join(directory, "spec64.json"), "w") as fh:
        json.dump({"atoms": atoms}, fh)


def run_case(case: str, inputs, out) -> int:
    argv, _ = CASES[case]
    return main([a.format(inputs=inputs) for a in argv] + ["--out", str(out)])


def load_result(path):
    """A JSON file as parsed; a CSV file as rows of ints, floats or strings."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [[_csv_cell(x) for x in row] for row in csv.reader(fh)]


def _csv_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def assert_matches(got, want, where: str = "$") -> None:
    """got equals want: floats to a relative REL_TOL, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= REL_TOL * abs(want) or got == want, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reference-inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case, inputs, tmp_path):
    assert run_case(case, inputs, tmp_path) == 0
    for name in CASES[case][1]:
        want = load_result(os.path.join(REFERENCE_DIR, case, name))
        assert_matches(load_result(str(tmp_path / name)), want, f"{case}/{name}")


def test_float_comparison_is_relative():
    assert_matches({"a": [1.0, 3]}, {"a": [1.0 + 5e-13, 3]})
    for got, want in ((1.0 + 2e-12, 1.0), (3.0, 3), (True, 1), (None, 0.0), ("1.0", 1.0)):
        with pytest.raises(AssertionError):
            assert_matches(got, want)
