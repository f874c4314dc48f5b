"""The benchmark's own tests; run with ``python3 -m pytest perfbench -q``.

They start real workload repetitions (a few seconds each), so they sit
outside the repository's ``testpaths``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import worker
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_benchmark(workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_and_untraced_runs_write_identical_artifacts(tmp_path):
    plain = run.spawn("lp-certify", 3, str(tmp_path / "plain"))
    traced = run.spawn("lp-certify", 3, str(tmp_path / "traced"), traced=True)
    assert plain is not None and traced is not None
    assert all(ok for _, ok in plain["checks"] + traced["checks"])
    # manifests are hashed without wall_time_s, so they may differ only there
    assert any(path.endswith("manifest.json") for path in plain["digest"])
    assert plain["digest"] == traced["digest"]
    assert "layers" not in plain
    assert traced["layers"]["linprog.lp_solve.calls"] == 11
    assert traced["layers"]["projector.approx_indicator.calls"] == 3
    assert traced["layers"]["cli.calls"] == 2


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_name_and_unit(trace, section):
    proc = _run_benchmark("lp-certify", 5, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("  failed_share = 0 ratio") for line in lines)
    if trace:
        assert result["metrics"]["linprog.lp_solve.calls"]["value"] == 11
        assert result["metrics"]["projector.approx_indicator.calls"]["value"] == 3


def _acceptance_payload(passed: bool = True) -> dict:
    checks = {str(k): {"name": f"c{k}", "passed": True} for k in range(1, 10)}
    checks["4"]["passed"] = passed
    return {"seed": 7, "all_passed": passed, "checks": checks}


def test_corrupted_artifact_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs("out/verify")
    path = "out/verify/acceptance.json"
    check = WORKLOADS["verify-all"].check

    with open(path, "w") as fh:
        json.dump(_acceptance_payload(), fh)
    assert [ok for _, ok in check()] == [True] * 9

    with open(path, "w") as fh:
        json.dump(_acceptance_payload(passed=False), fh)
    assert [ok for _, ok in check()] == [False] * 9  # all_passed is false

    with open(path, "w") as fh:
        fh.write(json.dumps(_acceptance_payload())[:40])
    assert [ok for _, ok in check()] == [False] * 9


def test_nonzero_exit_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(worker.cli, "main", lambda argv: 1)
    record = worker.run_rep("verify-all", 7, traced=False)
    assert record["checks"][0] == ("exit code of verify-all is 0 (got 1)", False)


def test_worker_past_the_deadline_is_killed(tmp_path):
    assert run.spawn("verify-all", 7, str(tmp_path), timeout=1.0) is None


def test_crashes_and_differing_artifacts_count_as_failed():
    rep = {"checks": [("ok", True)], "digest": {"out/a": "1"}, "traced": False}
    other = dict(rep, digest={"out/a": "2"})
    oks = [ok for _, ok in run.verdicts({"reps": [rep, other], "crashed": 1})]
    assert oks == [True, True, False, False]
