"""Acceptance gate: every headline check at its stated tolerance, one line each."""

from __future__ import annotations

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helson_lab import acceptance as A
from helson_lab.acceptance import results_json, run_acceptance


@pytest.fixture(scope="module")
def acceptance():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HELSON_LAB_THREADS", "1")
        return run_acceptance(7)


def _line(num: int, payload: dict, extra: str = "") -> bool:
    check = payload["checks"][str(num)]
    status = "PASS" if check["passed"] else "FAIL"
    print(f"[criterion {num}] {status} {check['name']} {extra}".rstrip())
    return check["passed"]


def test_criterion_1_mela_tv_bound(acceptance):
    payload, runtimes = acceptance
    rows = payload["checks"]["1"]["rows"]
    detail = " ".join(f"tv({r['epsilon']})={r['tv']:.2f}<= {r['slack'] * r['bound']:.2f}" for r in rows)
    ok = _line(1, payload, detail)
    assert ok
    assert runtimes["1"] <= 60.0


def test_criterion_2_drury_pipeline(acceptance):
    payload, runtimes = acceptance
    rows = payload["checks"]["2"]["rows"]
    worst_off = max(r["max_off_basis"] - r["epsilon"] for r in rows)
    ok = _line(2, payload, f"worst off-basis excess {worst_off:.2e}")
    assert ok
    assert runtimes["2"] <= 120.0


def test_criterion_3_riesz_identities(acceptance):
    payload, _ = acceptance
    rows = payload["checks"]["3"]["rows"]
    worst = max(r["fft_err"] for r in rows)
    assert _line(3, payload, f"max fft err {worst:.2e}")


def test_criterion_4_riesz_fourier_oracle(acceptance):
    payload, _ = acceptance
    rows = payload["checks"]["4"]["rows"]
    worst = max(r["max_err"] for r in rows)
    assert _line(4, payload, f"10 specs, max err {worst:.2e}")


def test_criterion_5_projector_telescope(acceptance):
    payload, _ = acceptance
    rows = payload["checks"]["5"]["rows"]
    detail = " ".join(f"{r['l2_err']:.3f}<={r['l2_bound']:.3f}" for r in rows)
    assert _line(5, payload, detail)


def test_criterion_6_a_norm_log_growth(acceptance):
    payload, _ = acceptance
    c = payload["checks"]["6"]
    assert _line(6, payload, f"R^2={c['r_squared']:.3f} b={c['slope_b']:.3f} (b reported)")


def test_criterion_7_gaussian_discrimination(acceptance):
    payload, runtimes = acceptance
    c = payload["checks"]["7"]
    detail = (
        f"G|z|max={max(abs(z) for z in c['gaussian_z']):.2f} "
        f"RP z2={c['random_phase_z'][1]:.0f} "
        f"cov={max(c['worst_spectral_ratio'].values()):.2f}se"
    )
    ok = _line(7, payload, detail)
    assert ok
    assert runtimes["7"] <= 90.0


def test_criterion_8_moment_machinery(acceptance):
    payload, _ = acceptance
    c = payload["checks"]["8"]
    assert _line(
        8, payload, f"norm4={c['norm4']:.4f} beta={c['growth_fit']:.3f} lc={c['logconvex_violations']}"
    )


def test_criterion_8_draw_matches_the_complex_expression(monkeypatch):
    # Z is filled in place, block by block; it must equal (re + 1j im) / sqrt(2) bit for bit
    class Drawn(Exception):
        pass

    def stop(Z, P):
        raise Drawn(Z.copy())

    monkeypatch.setattr(A.G, "moment_report", stop)
    with pytest.raises(Drawn) as drawn:
        A.check_moment_machinery()
    rng = np.random.default_rng(A._MOMENT_SEED)
    n = 10 ** 6
    ref = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    assert drawn.value.args[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("check", ["check_gaussian_discrimination", "check_moment_machinery"])
def test_long_sequence_criteria_hold_their_sequence_and_block_arrays(check):
    T = 10 ** 6  # the sequence is complex: 2 T * 8 bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert getattr(A, check)()["passed"]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * T * 8  # 4.0-4.1 real length-T arrays with full-length powers and draws


def test_criterion_9_helson_sanity(acceptance):
    payload, _ = acceptance
    c = payload["checks"]["9"]
    assert _line(
        9,
        payload,
        f"single={c['singleton']:.6f} half={c['two_point_half']:.4f} pair={c['independent_pair']:.4f}",
    )


def test_criterion_10_determinism(acceptance, two_workers):
    # the fixture ran on one worker; the bytes must not depend on the pool size
    payload, _ = acceptance
    again, _ = run_acceptance(7)
    same = results_json(payload) == results_json(again)
    print(f"[criterion 10] {'PASS' if same else 'FAIL'} determinism byte-identical={same}")
    assert same


def test_failing_criterion_propagates_from_the_pool(monkeypatch, two_workers):
    # criterion 9 is submitted early and fails at once, criterion 3 last; 7
    # fails in the lane it shares with 2 and 8.  The failure raised is the
    # first in criterion order, not the first to happen
    def broken(name):
        def check(*args):
            raise RuntimeError(f"{name} broke")
        return check

    monkeypatch.setattr(A, "check_riesz_identities", broken("criterion 3"))
    for check, name in (("check_helson_sanity", "criterion 9"), ("check_gaussian_discrimination", "criterion 7")):
        caught = []

        def run():
            try:
                run_acceptance(7)
            except RuntimeError as exc:
                caught.append(exc)

        with monkeypatch.context() as mp:
            mp.setattr(A, check, broken(name))
            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=120)
        assert not worker.is_alive(), "run_acceptance hung after a criterion raised"
        assert [str(exc) for exc in caught] == ["criterion 3 broke"], name


_CHECKS = (
    "check_mela_bound", "check_drury_pipeline", "check_riesz_identities", "check_riesz_oracle",
    "check_projector_telescope", "check_a_norm_growth", "check_gaussian_discrimination",
    "check_moment_machinery", "check_helson_sanity",
)


def test_memory_heavy_criteria_never_overlap(monkeypatch, two_workers):
    # criteria 2, 7 and 8 allocate tens of MB each and run in turn, also when
    # criterion 9 ends at once and frees its thread while another one runs
    spans = {}

    def stub(num, seconds):
        def check(*args):
            t0 = time.perf_counter()
            time.sleep(seconds)
            spans[num] = (t0, time.perf_counter())
            return {"name": f"stub_{num}", "passed": True}
        return check

    for num, name in enumerate(_CHECKS, start=1):
        monkeypatch.setattr(A, name, stub(num, 0.0 if num == 9 else 0.05))
    payload, _ = run_acceptance(7)
    assert payload["all_passed"] and sorted(spans) == list(range(1, 10))
    heavy = sorted(spans[num] for num in (2, 7, 8))
    assert all(end <= start for (_, end), (start, _) in zip(heavy, heavy[1:])), heavy
