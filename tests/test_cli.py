"""End-to-end checks of the command line driver.

Each test invokes main(argv) in process and inspects the exit code and the
files written under a temp directory.  The acceptance suite itself is slow,
so the verify-all plumbing is exercised with a stubbed payload here; the
genuine run lives in test_acceptance.py.
"""

import csv
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import helson_lab
from helson_lab import cli, projector
from helson_lab.cli import main, worker_count
from helson_lab.errors import MomentCheckFailed, OutOfRange
from helson_lab.mela import solve_mela

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def freq_files(tmp_path):
    orbit = sorted((m * GOLDEN) % 1.0 for m in range(1, 33))
    k_pts = orbit[::4]
    f_pts = [x for x in orbit if x not in k_pts]
    kf = write_json(tmp_path / "K.json", {"freqs": k_pts})
    ff = write_json(tmp_path / "F.json", {"freqs": f_pts})
    return kf, ff


@pytest.fixture
def spectrum_file(tmp_path):
    atoms = [
        {"freq": 0.23, "re": 0.6, "im": 0.0},
        {"freq": 0.71, "re": 0.4, "im": 0.0},
    ]
    return write_json(tmp_path / "spec.json", {"atoms": atoms})


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_mela_writes_results_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["mela", "--epsilon", "0.1353", "--out", str(out)]) == 0
    result = read_json(out / "mela.json")
    assert result["certificate"]["valid"] is True
    assert result["certificate"]["epsilon"] == 0.1353
    assert result["certificate"]["lp_iterations"] > 0
    assert result["certificate"]["lp_duality_gap"] <= 1e-8 * (1.0 + result["certificate"]["tv"])
    assert "atoms" in result["measure"]
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "mela"
    assert manifest["params"]["epsilon"] == 0.1353
    assert manifest["version"]
    assert manifest["wall_time_s"] >= 0.0
    assert str(out / "mela.json") in manifest["outputs"]
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_mela_sweep_csv(tmp_path):
    out = tmp_path / "run"
    assert main(["mela", "--sweep", "0.5,0.1", "--out", str(out)]) == 0
    header, rows = read_csv(out / "mela_sweep.csv")
    assert header == ["epsilon", "tv", "mela_bound", "valid"]
    assert len(rows) == 2
    eps = [float(r[0]) for r in rows]
    assert eps == [0.5, 0.1]
    assert all(float(r[1]) <= float(r[2]) for r in rows)
    assert all(r[3] == "True" for r in rows)


def test_result_files_deterministic(tmp_path):
    assert main(["mela", "--epsilon", "0.5", "--out", str(tmp_path / "a")]) == 0
    assert main(["mela", "--epsilon", "0.5", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "mela.json").read_bytes()
    b = (tmp_path / "b" / "mela.json").read_bytes()
    assert a == b


def test_drury_subcommand(tmp_path):
    out = tmp_path / "run"
    rc = main(["drury", "--n", "3", "--epsilon", "0.1", "--seed", "5", "--out", str(out)])
    assert rc == 0
    report = read_json(out / "drury.json")["report"]
    assert report["max_off_basis"] <= 0.1 + 1e-8
    for _, re_part, im_part in report["basis_values"]:
        assert abs(complex(re_part, im_part) - 1.0) <= 1e-8
    assert report["mc_l1"] <= report["sigma_tv"] + 3.0 * report["mc_l1_se"]


def test_drury_sigma_file_validation_failure(tmp_path):
    sigma, _ = solve_mela(0.1)
    spath = write_json(tmp_path / "sigma.json", sigma.to_json_dict())
    rc = main([
        "drury", "--n", "6", "--epsilon", "0.0001",
        "--sigma", spath, "--out", str(tmp_path / "run"),
    ])
    assert rc == 1


def test_drury_from_mela_measure_file_matches_solved(tmp_path):
    # the measure `mela` writes, passed back by --sigma on its own or as the
    # whole mela.json, gives the same bytes as solving it in the run
    assert main(["mela", "--epsilon", "0.01", "--out", str(tmp_path / "mela")]) == 0
    mpath = str(tmp_path / "mela" / "mela.json")
    spath = write_json(tmp_path / "sigma.json", read_json(mpath)["measure"])
    runs = {"solved": [], "sigma": ["--sigma", spath], "mela": ["--sigma", mpath]}
    for name, extra in runs.items():
        argv = ["drury", "--n", "6", "--epsilon", "0.01", *extra, "--out", str(tmp_path / name)]
        assert main(argv) == 0
    want = (tmp_path / "solved" / "drury.json").read_bytes()
    for name in ("sigma", "mela"):
        assert (tmp_path / name / "drury.json").read_bytes() == want


def test_helson_constant_singleton(tmp_path):
    kpath = write_json(tmp_path / "K.json", {"freqs": [0.3]})
    out = tmp_path / "run"
    rc = main([
        "helson-constant", "--K", kpath, "--grange", "200",
        "--restarts", "4", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    est = read_json(out / "helson_constant.json")
    assert abs(est["alpha_upper"] - 1.0) <= 1e-6


def test_helson_constant_zero_restarts_exits_two(tmp_path, capsys):
    kpath = write_json(tmp_path / "K.json", {"freqs": [0.3]})
    out = tmp_path / "run"
    rc = main(["helson-constant", "--K", kpath, "--grange", "20", "--restarts", "0", "--out", str(out)])
    assert rc == 2
    assert "restarts" in capsys.readouterr().err
    assert not (out / "helson_constant.json").exists()


def test_projector_outputs(tmp_path, freq_files):
    kf, ff = freq_files
    out = tmp_path / "run"
    rc = main([
        "projector", "--K", kf, "--F", ff, "--p", "2",
        "--degree", "24", "--kterms", "2", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out / "projector_growth.csv")
    assert header == ["p", "epsilon", "a_norm", "lp_objective"]
    assert len(rows) == 2
    eps = [float(r[1]) for r in rows]
    assert eps[1] < eps[0]
    series = read_json(out / "projector_series.json")
    assert set(series) == {"2.0"}
    assert len(series["2.0"]) == 2
    for stage in series["2.0"]:
        assert stage["lp_iterations"] > 0
        assert 0.0 <= stage["lp_duality_gap"] <= 1e-8 * (1.0 + stage["lp_objective"])


def test_projector_solves_each_distinct_epsilon_once(tmp_path, freq_files, monkeypatch):
    # e^{-2*2} == e^{-1*4}: --p 2,4 over 3 terms is 5 distinct stages, not 6
    kf, ff = freq_files
    real, solved = projector.approx_indicator, []

    def counting(K, F, epsilon, degree):
        solved.append(epsilon)
        return real(K, F, epsilon, degree)

    monkeypatch.setattr(projector, "approx_indicator", counting)
    out = tmp_path / "run"
    assert main(["projector", "--K", kf, "--F", ff, "--p", "2,4", "--kterms", "3",
                 "--degree", "24", "--out", str(out)]) == 0
    assert sorted(solved) == sorted({math.exp(-k * p) for p in (2.0, 4.0) for k in (1, 2, 3)})
    assert len(solved) == 5
    series = read_json(out / "projector_series.json")
    assert series["4.0"][0] == series["2.0"][1]
    _, rows = read_csv(out / "projector_growth.csv")
    assert len(rows) == 6


def test_riesz_support_and_profile(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "riesz", "--alpha", "0.5", "--freqs", "3,9,27",
        "--profile", "40", "--power", "2", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out / "riesz_support.csv")
    assert header == ["m", "coeff"]
    assert len(rows) == 27
    summary = read_json(out / "riesz.json")
    assert summary["support_size"] == 27
    assert summary["power_profile"]["argmax_m"] == 3
    assert abs(summary["power_profile"]["max"] - 0.0625) < 1e-12
    assert abs(summary["rigidity"]["ratio"] - 0.25) < 1e-12


def test_riesz_profile_with_no_support_point_in_range(tmp_path):
    # the least positive support point of (3, 9) is 3, so a range of 2 holds none
    out = tmp_path / "run"
    assert main(["riesz", "--alpha", "0.5", "--freqs", "3,9", "--profile", "2", "--out", str(out)]) == 0
    summary = read_json(out / "riesz.json")
    assert summary["power_profile"] == {"k": 2, "m_range": 2, "max": 0.0, "argmax_m": 0}
    assert summary["rigidity"] == {"g": 1, "ratio": 0.0}


@pytest.mark.parametrize("flags", [["--profile", "5", "--power", "0"], ["--profile", "-3"]])
def test_riesz_refuses_bad_profile_input_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["riesz", "--alpha", "0.5", "--freqs", "3,9,27", *flags, "--out", str(out)]) == 2
    assert ">= 1" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_riesz_profile_zero_means_no_profiles(tmp_path):
    out = tmp_path / "run"
    assert main(["riesz", "--alpha", "0.5", "--freqs", "3,9", "--profile", "0", "--power", "0",
                 "--out", str(out)]) == 0
    assert "power_profile" not in read_json(out / "riesz.json")


def test_gauss_sim_sections_and_dump(tmp_path, spectrum_file):
    out = tmp_path / "run"
    rc = main([
        "gauss-sim", "--spectrum", spectrum_file, "--len", "20000",
        "--seed", "3", "--pmax", "8", "--dump",
        "--report", "moments,spectral,gaussianity,increments",
        "--out", str(out),
    ])
    assert rc == 0
    report = read_json(out / "gauss_sim.json")
    assert report["model"] == "gaussian"
    assert set(report) >= {"moments", "spectral", "gaussianity", "increments"}
    assert len(report["moments"]["p_grid"]) == 4
    assert len(report["spectral"]) == 51
    assert len(report["gaussianity"]["z_scores"]) == 3
    header, rows = read_csv(out / "gauss_series.csv")
    assert header == ["n", "re", "im"]
    assert len(rows) == 20000


@pytest.mark.parametrize("pmax", [2, 4])
def test_gauss_sim_moments_summary_at_small_pmax(tmp_path, spectrum_file, capsys, pmax):
    # p = 4 is printed only when the moment report computed it
    out = tmp_path / "run"
    rc = main([
        "gauss-sim", "--spectrum", spectrum_file, "--len", "1000", "--pmax", str(pmax),
        "--report", "moments", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "manifest.json").exists()
    moments = read_json(out / "gauss_sim.json")["moments"]
    assert moments["p_grid"] == list(range(2, pmax + 1, 2))
    printed = capsys.readouterr().out
    if pmax == 2:
        assert "norm4" not in printed
    else:
        assert f"norm4={moments['lp_norms'][1]:.4f}" in printed


def test_gauss_sim_random_phase_model(tmp_path, spectrum_file):
    out = tmp_path / "run"
    rc = main([
        "gauss-sim", "--spectrum", spectrum_file, "--len", "5000",
        "--seed", "2", "--model", "random-phase",
        "--report", "spectral", "--out", str(out),
    ])
    assert rc == 0
    report = read_json(out / "gauss_sim.json")
    assert report["model"] == "random-phase"
    assert "moments" not in report


def _gauss_sim_all(spectrum, out):
    return main([
        "gauss-sim", "--spectrum", spectrum, "--len", "20000", "--seed", "5",
        "--report", "moments,spectral,gaussianity,increments", "--out", str(out),
    ])


def test_gauss_sim_pool_matches_one_worker(tmp_path, spectrum_file, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HELSON_LAB_THREADS", "1")
    assert _gauss_sim_all(spectrum_file, tmp_path / "one") == 0
    # on two workers, spectral (submitted first) finishes last
    moments_done, finished = threading.Event(), []
    real_spectral, real_moments = cli.G.estimate_spectral, cli.G.moment_report

    def late_spectral(seq, g_max):
        assert moments_done.wait(timeout=30)
        finished.append("spectral")
        return real_spectral(seq, g_max)

    def moments(seq, P):
        try:
            return real_moments(seq, P)
        finally:
            finished.append("moments")
            moments_done.set()

    monkeypatch.setattr(cli.G, "estimate_spectral", late_spectral)
    monkeypatch.setattr(cli.G, "moment_report", moments)
    monkeypatch.setenv("HELSON_LAB_THREADS", "2")
    assert _gauss_sim_all(spectrum_file, tmp_path / "two") == 0
    assert finished == ["moments", "spectral"]
    one, two = (tmp_path / d / "gauss_sim.json" for d in ("one", "two"))
    assert one.read_bytes() == two.read_bytes()


def test_gauss_sim_tables_do_not_outlive_their_run(tmp_path):
    # each run builds its own phasor tables: runs in one process, on different
    # spectra and on one spectrum with both models, write what fresh processes write
    specs = []
    for n in (5, 9):
        rng = np.random.default_rng(n)
        atoms = [{"freq": float(f), "re": float(w), "im": 0.0}
                 for f, w in zip(rng.random(n), rng.uniform(0.5, 1.5, n))]
        specs.append(write_json(tmp_path / f"spec{n}.json", {"atoms": atoms}))
    runs = [(specs[0], "gaussian"), (specs[1], "random-phase"), (specs[0], "random-phase")]

    def argv(i, where):
        spec, model = runs[i]
        return ["gauss-sim", "--spectrum", spec, "--len", "20000", "--seed", "5", "--model", model,
                "--report", "moments,spectral,gaussianity,increments", "--out", str(tmp_path / where / str(i))]

    for i in range(len(runs)):
        assert main(argv(i, "one-process")) == 0
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(helson_lab.__file__))}
    for i in range(len(runs)):
        done = subprocess.run([sys.executable, "-m", "helson_lab.cli", *argv(i, "own-process")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        one, own = (tmp_path / where / str(i) / "gauss_sim.json" for where in ("one-process", "own-process"))
        assert one.read_bytes() == own.read_bytes()


def test_gauss_sim_increments_section_frees_its_windows(tmp_path):
    # the section passes spectral_process's windows straight into the test,
    # which drops them before its FFT pass; held to the end they add 2 x 16 T bytes
    rng = np.random.default_rng(11)
    atoms = [{"freq": float(f), "re": float(w), "im": 0.0} for f, w in zip(rng.random(64), rng.uniform(0.5, 1.5, 64))]
    T = 200_000
    argv = ["gauss-sim", "--spectrum", write_json(tmp_path / "spec.json", {"atoms": atoms}), "--len", str(T),
            "--seed", "3", "--report", "increments", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * T * 16  # the sequence and the section's work arrays; 6.8 x 16 T with the windows held


def _run_bounded(fn):
    """fn() on a thread joined within 60 s; returns its result or exception."""
    box = []

    def run():
        try:
            box.append(fn())
        except Exception as exc:  # handed to the assertions
            box.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "gauss-sim hung after a section raised"
    return box[0]


def test_gauss_sim_section_failure_propagates(tmp_path, spectrum_file, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HELSON_LAB_THREADS", "2")

    def broken(*args, **kwargs):
        raise RuntimeError("gaussianity broke")

    monkeypatch.setattr(cli.G, "gaussianity_test", broken)
    caught = _run_bounded(lambda: _gauss_sim_all(spectrum_file, tmp_path / "a"))
    assert isinstance(caught, RuntimeError) and str(caught) == "gaussianity broke"

    def invalid(*args, **kwargs):
        raise MomentCheckFailed("gaussianity invalid")

    monkeypatch.setattr(cli.G, "gaussianity_test", invalid)
    assert _run_bounded(lambda: _gauss_sim_all(spectrum_file, tmp_path / "b")) == 1
    assert "gaussianity invalid" in capsys.readouterr().err
    assert not (tmp_path / "b" / "gauss_sim.json").exists()


def test_gauss_sim_first_failing_section_in_report_order_wins(tmp_path, spectrum_file,
                                                              monkeypatch, capsys):
    # moments comes first in the report but is submitted last; it fails after
    # spectral has, and its failure (exit 1) is the one reported, not exit 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HELSON_LAB_THREADS", "2")
    spectral_failed = threading.Event()

    def spectral(seq, g_max):
        spectral_failed.set()
        raise OutOfRange("spectral refused")

    def moments(seq, P):
        assert spectral_failed.wait(timeout=30)
        raise MomentCheckFailed("moments invalid")

    monkeypatch.setattr(cli.G, "estimate_spectral", spectral)
    monkeypatch.setattr(cli.G, "moment_report", moments)
    assert _run_bounded(lambda: _gauss_sim_all(spectrum_file, tmp_path / "run")) == 1
    assert "moments invalid" in capsys.readouterr().err


def test_verify_all_stubbed(tmp_path, monkeypatch):
    def fake_acceptance(seed):
        payload = {
            "seed": seed,
            "all_passed": True,
            "checks": {"1": {"name": "stub_check", "passed": True, "detail": "d"}},
        }
        return payload, {"1": 0.0}

    monkeypatch.setattr(cli, "run_acceptance", fake_acceptance)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["verify-all", "--seed", "7", "--out", str(a)]) == 0
    assert main(["verify-all", "--seed", "7", "--out", str(b)]) == 0
    bytes_a = (a / "acceptance.json").read_bytes()
    assert bytes_a == (b / "acceptance.json").read_bytes()
    assert json.loads(bytes_a)["seed"] == 7


def test_verify_all_reports_failure(tmp_path, monkeypatch):
    def fake_acceptance(seed):
        payload = {
            "seed": seed,
            "all_passed": False,
            "checks": {"1": {"name": "stub_check", "passed": False, "detail": "d"}},
        }
        return payload, {"1": 0.0}

    monkeypatch.setattr(cli, "run_acceptance", fake_acceptance)
    assert main(["verify-all", "--out", str(tmp_path / "run")]) == 1


# ---------------------------------------------------------------------------
# config files and environment
# ---------------------------------------------------------------------------


def test_config_overrides_flags(tmp_path):
    cpath = write_json(tmp_path / "cfg.json", {"epsilon": 0.5, "kmax": 6})
    out = tmp_path / "run"
    rc = main(["mela", "--epsilon", "0.01", "--config", cpath, "--out", str(out)])
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["params"]["epsilon"] == 0.5
    assert read_json(out / "mela.json")["certificate"]["epsilon"] == 0.5


def test_config_unknown_key_names_it(tmp_path, capsys):
    cpath = write_json(tmp_path / "cfg.json", {"epsilonn": 0.5})
    rc = main(["mela", "--config", cpath, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "epsilonn" in capsys.readouterr().err


def test_config_wrong_type(tmp_path, capsys):
    cpath = write_json(tmp_path / "cfg.json", {"epsilon": "half"})
    rc = main(["mela", "--config", cpath, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err


def test_config_value_outside_choices(tmp_path, spectrum_file, capsys):
    cpath = write_json(tmp_path / "cfg.json", {"model": "randomphase"})
    out = tmp_path / "run"
    rc = main([
        "gauss-sim", "--spectrum", spectrum_file, "--len", "2000",
        "--config", cpath, "--out", str(out),
    ])
    assert rc == 2
    assert "config key model" in capsys.readouterr().err
    assert not (out / "gauss_sim.json").exists()


@pytest.mark.parametrize("command,key", [("drury", "n"), ("mela", "epsilon"), ("mela", "grid")])
def test_config_bool_for_number_rejected(tmp_path, capsys, command, key):
    cpath = write_json(tmp_path / "cfg.json", {key: True})
    argv = [command, "--config", cpath, "--out", str(tmp_path / "run")]
    if command == "drury":
        argv += ["--n", "3", "--epsilon", "0.1"]
    assert main(argv) == 2
    assert f"config key {key} " in capsys.readouterr().err


def test_config_bool_flag_takes_bool(tmp_path, spectrum_file):
    cpath = write_json(tmp_path / "cfg.json", {"dump": True, "model": "random-phase"})
    out = tmp_path / "run"
    rc = main(["gauss-sim", "--spectrum", spectrum_file, "--len", "2000", "--report", "spectral",
               "--config", cpath, "--out", str(out)])
    assert rc == 0
    assert (out / "gauss_series.csv").exists()
    assert read_json(out / "gauss_sim.json")["model"] == "random-phase"


@pytest.mark.parametrize("command", [
    "mela", "projector", "riesz", "drury", "helson-constant", "gauss-sim", "verify-all",
])
def test_config_seed_only_where_the_flag_exists(tmp_path, freq_files, spectrum_file,
                                               monkeypatch, capsys, command):
    kf, ff = freq_files
    argv = {
        "mela": ["mela"],
        "projector": ["projector", "--K", kf, "--F", ff],
        "riesz": ["riesz", "--alpha", "0.5", "--freqs", "3,9,27"],
        "drury": ["drury", "--n", "3", "--epsilon", "0.1"],
        "helson-constant": ["helson-constant", "--K", kf, "--grange", "200", "--restarts", "2"],
        "gauss-sim": ["gauss-sim", "--spectrum", spectrum_file, "--len", "2000",
                      "--report", "spectral"],
        "verify-all": ["verify-all"],
    }[command]
    monkeypatch.setattr(cli, "run_acceptance", lambda seed: (
        {"seed": seed, "all_passed": True, "checks": {}}, {}))
    out = tmp_path / "run"
    cpath = write_json(tmp_path / "cfg.json", {"seed": 3})
    rc = main(argv + ["--config", cpath, "--out", str(out)])
    if command in ("mela", "projector", "riesz"):  # no --seed flag
        assert rc == 2
        assert "unknown config key: seed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
    else:
        assert rc == 0
        assert read_json(out / "manifest.json")["params"]["seed"] == 3


def test_config_malformed_json(tmp_path):
    cpath = tmp_path / "cfg.json"
    cpath.write_text("not json {")
    rc = main(["mela", "--config", str(cpath), "--out", str(tmp_path / "run")])
    assert rc == 2


def test_config_must_be_object(tmp_path):
    cpath = write_json(tmp_path / "cfg.json", [1, 2, 3])
    rc = main(["mela", "--config", str(cpath), "--out", str(tmp_path / "run")])
    assert rc == 2


def test_threads_env_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("HELSON_LAB_THREADS", "zero")
    assert main(["mela", "--out", str(tmp_path / "a")]) == 2
    monkeypatch.setenv("HELSON_LAB_THREADS", "0")
    assert main(["mela", "--out", str(tmp_path / "b")]) == 2


def test_threads_env_caps_workers(monkeypatch):
    monkeypatch.setenv("HELSON_LAB_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.delenv("HELSON_LAB_THREADS")
    assert worker_count() >= 1


def test_manifest_records_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("HELSON_LAB_THREADS", "1")
    out = tmp_path / "run"
    assert main(["mela", "--epsilon", "0.5", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["threads"] == 1


@pytest.mark.parametrize("user_value, used", [(None, "1"), ("3", "3")])
def test_blas_threads_default_and_manifest(tmp_path, user_value, used):
    # OpenBLAS reads the variable when numpy loads, so check in a fresh process
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(helson_lab.__file__))
    out = tmp_path / "run"
    code = (
        "import os, sys\n"
        "from helson_lab.cli import main\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        f"sys.exit(main(['mela', '--epsilon', '0.5', '--out', {str(out)!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == used
    assert read_json(out / "manifest.json")["blas_threads"] == used


def test_atomic_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "a.json"), "{}\n")
    assert os.listdir(tmp_path) == []


def test_atomic_write_mode_and_concurrent_writers(tmp_path, monkeypatch):
    path = str(tmp_path / "shared.json")
    with open(tmp_path / "plain", "w"):
        pass
    # both writers finish their temp file before either renames it
    barrier = threading.Barrier(2)
    real_replace = os.replace

    def synced_replace(src, dst):
        barrier.wait(timeout=10)
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", synced_replace)
    payloads = ["first\n", "second\n"]
    errors = []

    def write(data):
        try:
            cli._atomic_write(path, data)
        except Exception as exc:  # recorded for the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(d,)) for d in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    with open(path) as fh:
        assert fh.read() in payloads
    assert sorted(os.listdir(tmp_path)) == ["plain", "shared.json"]
    # same permissions as a file opened for writing (umask applied, not 0600)
    assert os.stat(path).st_mode & 0o777 == os.stat(tmp_path / "plain").st_mode & 0o777


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(tmp_path):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["drury"]) == 2
    assert main(["drury", "--n", "three", "--epsilon", "0.1"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_domain_error_exits_two(tmp_path, capsys):
    rc = main(["mela", "--epsilon", "0.9", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "OutOfRange" in capsys.readouterr().err


def test_bad_sweep_token_exits_two(tmp_path):
    rc = main(["mela", "--sweep", "0.5,abc", "--out", str(tmp_path / "run")])
    assert rc == 2


def test_missing_input_file_exits_two(tmp_path):
    rc = main([
        "helson-constant", "--K", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 2


@pytest.mark.parametrize("command, flag, content", [
    ("helson-constant", "--K", {"atoms": [{"freq": 0.3}]}),  # no "freqs" key
    ("helson-constant", "--K", [0.3, 0.6]),  # a list, not an object
    ("projector", "--F", {"freqs": [None]}),
    ("gauss-sim", "--spectrum", {"freqs": [0.3]}),  # no "atoms" key
    ("drury", "--sigma", {"freqs": [0.3]}),
])
def test_malformed_input_file_exits_two(tmp_path, freq_files, capsys, command, flag, content):
    bad = write_json(tmp_path / "bad.json", content)
    kf, ff = freq_files
    argv = {
        "helson-constant": ["helson-constant", "--grange", "20"],
        "projector": ["projector", "--K", kf, "--F", ff, "--degree", "24"],
        "gauss-sim": ["gauss-sim", "--len", "100"],
        "drury": ["drury", "--n", "2", "--epsilon", "0.1"],
    }[command]
    out = tmp_path / "run"
    assert main([*argv, flag, bad, "--out", str(out)]) == 2
    assert bad in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_gauss_sim_refuses_odd_pmax_before_synthesis(tmp_path, spectrum_file, monkeypatch):
    def no_synthesis(model):
        raise AssertionError("simulate ran before the --pmax check")

    monkeypatch.setattr(cli.G, "simulate", no_synthesis)
    for pmax in ("3", "34", "0"):
        rc = main(["gauss-sim", "--spectrum", spectrum_file, "--len", "2000", "--pmax", pmax,
                   "--out", str(tmp_path / "run")])
        assert rc == 2


@pytest.mark.parametrize("p, kterms", [(",", "99"), (",", "2"), ("2", "99"), ("2", "0")])
def test_projector_refuses_bad_ladder_before_any_lp(tmp_path, freq_files, monkeypatch, p, kterms):
    def no_lp(*args):
        raise AssertionError("an LP ran before the ladder check")

    monkeypatch.setattr(projector, "approx_indicator", no_lp)
    kf, ff = freq_files
    out = tmp_path / "run"
    rc = main(["projector", "--K", kf, "--F", ff, "--p", p, "--kterms", kterms, "--degree", "24",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists() or not os.listdir(out)


def test_unknown_report_section_exits_two(tmp_path, spectrum_file, capsys, monkeypatch):
    # the sections are checked before any sequence is synthesized
    def no_synthesis(model):
        raise AssertionError("simulate ran before the --report check")

    monkeypatch.setattr(cli.G, "simulate", no_synthesis)
    rc = main([
        "gauss-sim", "--spectrum", spectrum_file, "--len", "2000",
        "--report", "moments,bogus", "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err
