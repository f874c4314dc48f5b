"""Helson estimates, LP indicators, and telescoping projectors on rotation models."""

from __future__ import annotations

import math
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csr_array

from helson_lab import projector
from helson_lab.errors import InfeasibleSeparation, OutOfRange
from helson_lab.linprog import GAP_TOL, LP_MAX_ENTRIES, dense_entries, lp_solve
from helson_lab.projector import (
    RotationModel,
    apply_projector,
    approx_indicator,
    filter_with_indicator,
    helson_constant,
    l2_coeff_distance,
    lp_norm_growth,
    projector_series,
)
from helson_lab.torus import FiniteFrequencySet, SparseTrigPoly, a_norm_lattice

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden_kf():
    # 32-point golden orbit, every 4th point promoted to K
    pts = sorted((k * GOLDEN) % 1.0 for k in range(1, 33))
    Kp = tuple(pts[i] for i in range(0, 32, 4))
    Fp = [p for p in pts if p not in set(Kp)]
    return FiniteFrequencySet(Kp), Fp


@pytest.fixture(scope="module")
def golden_inds(golden_kf):
    K, F = golden_kf
    return {eps: approx_indicator(K, F, eps, degree=24) for eps in (0.1, 0.01)}


# ---------------------------------------------------------------------------
# helson_constant
# ---------------------------------------------------------------------------

def test_helson_singleton_is_one():
    est = helson_constant(FiniteFrequencySet((Fraction(1, 3),)), g_range=50, restarts=2, seed=0)
    assert est.alpha_upper == pytest.approx(1.0, abs=1e-6)
    assert est.witness_measure.total_variation() == pytest.approx(1.0, abs=1e-9)


def test_helson_half_pair_bound():
    # mu = (delta_0 + i delta_{1/2})/2 has |mu_hat(g)| = 1/sqrt(2) for all g
    est = helson_constant(FiniteFrequencySet((Fraction(0), Fraction(1, 2))), g_range=64, restarts=4, seed=1)
    assert est.alpha_upper <= 0.708
    assert est.alpha_upper >= 1.0 / math.sqrt(2.0) - 1e-9  # 1/sqrt(2) is optimal here


_FLOAT_K = st.lists(
    st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8, unique_by=lambda x: round(x * 1e6)
)


@settings(max_examples=8, deadline=None)
@given(_FLOAT_K, st.integers(0, 400), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
@example((Fraction(0), Fraction(1, 2)), 32, 3, 2)
@example((0.3,), 0, 1, 0)
def test_helson_witness_consistent(freqs, g_range, restarts, seed):
    ds = np.abs(np.subtract.outer(np.array(freqs, dtype=float), np.array(freqs, dtype=float)))
    assume(np.all(np.minimum(ds, 1.0 - ds)[np.triu_indices(len(freqs), 1)] > 1e-9))
    est = helson_constant(FiniteFrequencySet(tuple(freqs)), g_range, restarts, seed)
    lam = est.witness_measure.frequencies()
    w = est.witness_measure.weights()
    # the dense (2G+1) x |K| table is the test oracle only
    gs = np.arange(-g_range, g_range + 1)
    mods = np.abs(np.exp(2j * np.pi * np.outer(gs, lam)) @ w)
    assert abs(est.alpha_upper - np.max(mods)) <= 1e-12
    assert abs(est.argmax_g) <= g_range
    assert abs(mods[est.argmax_g + g_range] - np.max(mods)) <= 1e-12


_SEPARATED_K = st.lists(
    st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8, unique_by=lambda x: round(x * 1e3)
)


@settings(max_examples=60, deadline=None)
@given(_SEPARATED_K, st.integers(1, 3_000), st.integers(0, 2 ** 32 - 1), st.floats(-7.0, 7.0), st.floats(0.0, 1.0))
@example([0.1, 0.6], 1, 0, 0.0, 0.5)
@example([0.3], 10, 1, 3.0, 1.0)
def test_affine_objectives_match_full_scans(freqs, g_range, seed, phi, frac):
    # each move's 3-row form at an arbitrary phi or t, and the value its line
    # search returns (pruned to the near columns), against full scans
    lam = np.array(freqs)
    scan = projector._mu_hat_scan(lam, g_range)
    rng = np.random.default_rng(seed)
    w = projector._normalize_l1(rng.normal(size=lam.size) + 1j * rng.normal(size=lam.size))
    i, j = rng.permutation(lam.size)[:2] if lam.size > 1 else (0, 0)

    def check(move, x, moved):
        d, form, coefs = move[:3]
        sup_w, rows = projector._rows(scan, w, d, form)
        assert sup_w == np.max(np.abs(scan(w)))
        full = np.max(np.abs(scan(moved(x))))
        assert abs(projector._affine_sup(rows, coefs(np.array([x])))[0] - full) <= 1e-12 * full
        searched, x, val = projector._line_search(scan, w, *move)
        assert searched == sup_w
        full = np.max(np.abs(scan(moved(x))))
        assert abs(val - full) <= 1e-12 * full

    def phase_moved(x):
        trial = w.copy()
        trial[j] = abs(w[j]) * np.exp(1j * x)
        return trial

    check(projector._phase_move(w, j), phi, phase_moved)
    if i != j:
        u = np.exp(1j * np.angle(w))

        def mass_moved(t):
            trial = w.copy()
            trial[i], trial[j] = (abs(w[i]) + t) * u[i], (abs(w[j]) - t) * u[j]
            return trial

        check(projector._mass_move(w, i, j), -abs(w[i]) + frac * (abs(w[i]) + abs(w[j])), mass_moved)


def test_helson_independent_pair_near_one():
    K = FiniteFrequencySet((math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0))
    est = helson_constant(K, g_range=10_000, restarts=3, seed=3)
    assert est.alpha_upper >= 0.95


def test_helson_seed_determinism():
    K = FiniteFrequencySet((Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)))
    a = helson_constant(K, g_range=100, restarts=3, seed=11)
    b = helson_constant(K, g_range=100, restarts=3, seed=11)
    assert a.alpha_upper == b.alpha_upper
    assert np.array_equal(a.witness_measure.weights(), b.witness_measure.weights())


def test_helson_guards():
    with pytest.raises(OutOfRange):
        helson_constant(FiniteFrequencySet(()), g_range=10, restarts=1, seed=0)
    nine = FiniteFrequencySet(tuple(Fraction(i, 19) for i in range(1, 10)))
    with pytest.raises(OutOfRange):
        helson_constant(nine, g_range=10, restarts=1, seed=0)
    with pytest.raises(OutOfRange):
        helson_constant(FiniteFrequencySet((Fraction(0),)), g_range=2 * 10 ** 6, restarts=1, seed=0)


def test_helson_restarts_below_one_rejected():
    with pytest.raises(OutOfRange, match="restarts"):
        helson_constant(FiniteFrequencySet((Fraction(0),)), g_range=10, restarts=0, seed=0)


def test_helson_negative_g_range_rejected():
    with pytest.raises(OutOfRange, match="g_range"):
        helson_constant(FiniteFrequencySet((Fraction(0),)), g_range=-1, restarts=1, seed=0)


def test_helson_json_dict():
    est = helson_constant(FiniteFrequencySet((Fraction(1, 3),)), g_range=16, restarts=1, seed=0)
    d = est.to_json_dict()
    assert d["g_range"] == 16 and "alpha_upper" in d and "witness" in d


# ---------------------------------------------------------------------------
# approx_indicator
# ---------------------------------------------------------------------------

def test_indicator_easy_instance_norm_one():
    # far-away F at loose eps: the minimum a_norm is exactly phi(0) = 1
    ind = approx_indicator(FiniteFrequencySet((Fraction(0),)), [0.3, 0.45, 0.55, 0.7], 0.2, degree=8)
    assert ind.a_norm == pytest.approx(1.0, abs=1e-7)
    assert ind.lp_objective <= ind.a_norm + 1e-9


def test_indicator_constraints_hold(golden_inds, golden_kf):
    K, F = golden_kf
    for eps, ind in golden_inds.items():
        vK = ind.phi.evaluate(K.values()[:, None])
        assert np.max(np.abs(vK - 1.0)) <= 1e-6
        vF = ind.phi.evaluate(np.array(F)[:, None])
        assert np.max(np.abs(vF)) <= eps + 1e-6
        assert ind.phi.max_abs_coord() <= 24


def test_indicator_octagon_sandwich(golden_inds):
    # objective uses octagonal ceilings: obj <= a_norm <= sec(pi/8) obj
    for ind in golden_inds.values():
        assert ind.lp_objective <= ind.a_norm + 1e-8
        assert ind.a_norm <= ind.lp_objective / math.cos(math.pi / 8.0) + 1e-8
        assert ind.a_norm == pytest.approx(a_norm_lattice(ind.phi), abs=1e-12)


def test_indicator_norm_monotone_in_eps(golden_inds):
    assert golden_inds[0.01].a_norm >= golden_inds[0.1].a_norm - 1e-9


def test_indicator_reduces_tiny_negative_sample_to_zero():
    # float(-1e-20) % 1.0 rounds to 1.0, outside [0, 1)
    ind = approx_indicator(FiniteFrequencySet((0.5,)), [-1e-20], 0.1, 8)
    assert ind.F_samples == (0.0,)


def test_indicator_resolution_guard():
    with pytest.raises(InfeasibleSeparation):
        approx_indicator(FiniteFrequencySet((Fraction(0),)), [0.001], 0.5, degree=8)


def test_indicator_lp_infeasible_maps_to_separation_error():
    # 30 near-zero caps exceed the 18 real degrees of freedom at degree 4
    F = list(np.linspace(0.125, 0.875, 30))
    with pytest.raises(InfeasibleSeparation):
        approx_indicator(FiniteFrequencySet((Fraction(0),)), F, 1e-3, degree=4)


def test_indicator_domain_guards():
    K = FiniteFrequencySet((Fraction(0),))
    with pytest.raises(OutOfRange):
        approx_indicator(K, [0.5], 0.1, degree=0)
    with pytest.raises(OutOfRange):
        approx_indicator(K, [0.5], 0.1, degree=513)
    with pytest.raises(OutOfRange):
        approx_indicator(K, [0.5], 1.0, degree=8)
    with pytest.raises(OutOfRange):
        approx_indicator(K, list(np.linspace(0.1, 0.9, 500)), 0.1, degree=8)


def test_indicator_empty_K_rejected():
    with pytest.raises(OutOfRange, match="K must hold"):
        approx_indicator(FiniteFrequencySet(()), [0.5], 0.1, degree=8)


class _Captured(Exception):
    """Raised by a stand-in lp_solve once it has recorded its arguments."""


def _capture_lp(monkeypatch) -> dict:
    seen: dict = {}

    def fake(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
        seen.update(c=c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
        raise _Captured

    monkeypatch.setattr(projector, "lp_solve", fake)
    return seen


def _grid_kf(n_k: int, n_f: int):
    # n_k + n_f evenly spaced points; K takes every step-th one
    pts = (np.arange(n_k + n_f) + 0.5) / (n_k + n_f)
    step = (n_k + n_f) // n_k
    k_idx = set(range(0, step * n_k, step))
    K = FiniteFrequencySet(tuple(float(pts[i]) for i in sorted(k_idx)))
    F = [float(pts[i]) for i in range(n_k + n_f) if i not in k_idx]
    return K, F


def _refuse_build(monkeypatch) -> list:
    # stands in for the LP builder: records the request, builds nothing
    built: list = []

    def fake(lamK, ts, epsilon, ns):
        built.append((ns.size, ts.size))
        raise _Captured

    monkeypatch.setattr(projector, "_indicator_lp", fake)
    return built


_ADMITTED_CORNERS = [
    (16, 1, 499),   # 5091 lifted rows: past the old 4096-row limit
    (412, 8, 200),  # the old row limit's largest degree at |F| = 200
    (512, 2, 200),  # the degree-512 envelope corner
    (512, 300, 200),
    (512, 500, 0),
    (366, 1, 499),  # the largest degree admitted at |F| = 499
]


def _clustered_kf(n_k: int, n_f: int):
    K = FiniteFrequencySet(tuple(0.25 * i / n_k for i in range(n_k)))
    return K, list(np.linspace(0.375, 0.875, n_f))


@pytest.mark.parametrize("degree,n_k,n_f", _ADMITTED_CORNERS)
def test_indicator_entry_guard_admits(monkeypatch, degree, n_k, n_f):
    built = _refuse_build(monkeypatch)
    K, F = _clustered_kf(n_k, n_f)
    with pytest.raises(_Captured):
        approx_indicator(K, F, 0.1, degree=degree)
    assert built == [(2 * degree + 1, n_f)]


@pytest.mark.parametrize("degree,n_k,n_f", _ADMITTED_CORNERS)
def test_admitted_corner_lp_passes_solver_guard(monkeypatch, degree, n_k, n_f):
    # the folded LP that approx_indicator builds at each admitted corner is
    # handed on to HiGHS by lp_solve's entry count; HiGHS is not run
    seen: list = []

    def fake_highs(c, A_ub=None, b_ub=None, A_eq=None, **_):
        seen.append(c.size + A_eq.nnz + A_ub.nnz)
        raise _Captured

    monkeypatch.setattr("helson_lab.linprog._scipy_linprog", fake_highs)
    K, F = _clustered_kf(n_k, n_f)
    with pytest.raises(_Captured):
        approx_indicator(K, F, 0.1, degree=degree)
    assert len(seen) == 1 and seen[0] <= LP_MAX_ENTRIES


def test_indicator_row_envelope_matches_solver(monkeypatch):
    # the folded LP has 5 N + 2 |K| + 10 |F| rows over 9 N + 2 |F| columns,
    # N = 2 degree + 1; the envelope is the unfolded LP's dense size
    seen = _capture_lp(monkeypatch)
    K = FiniteFrequencySet((Fraction(0),))
    F = list(np.linspace(0.25, 0.75, 40))
    with pytest.raises(_Captured):
        approx_indicator(K, F, 0.1, degree=16)
    rows = seen["A_eq"].shape[0] + seen["A_ub"].shape[0]
    assert rows == 5 * 33 + 2 * 1 + 10 * 40
    assert seen["c"].size == seen["A_eq"].shape[1] == seen["A_ub"].shape[1] == 9 * 33 + 2 * 40
    assert all(isinstance(seen[k], np.ndarray) for k in ("c", "b_eq", "b_ub"))
    assert all(isinstance(seen[k], csr_array) for k in ("A_eq", "A_ub"))
    # one degree past the largest admitted at |F| = 499: refused before any
    # row is built, and its entry count is past what lp_solve admits
    built = _refuse_build(monkeypatch)
    F = list(np.linspace(0.25, 0.75, 499))
    with pytest.raises(OutOfRange, match=r"degree 367 with \|F\| = 499"):
        approx_indicator(K, F, 0.1, degree=367)
    assert dense_entries(3 * 735 + 2 + 10 * 499, 5 * 735 + 2 * 499) > LP_MAX_ENTRIES
    K2, F2 = _grid_kf(1, 283)
    with pytest.raises(OutOfRange, match=r"degree 512 with \|F\| = 283"):
        approx_indicator(K2, F2, 0.1, degree=512)
    assert not built


_COS8 = math.cos(math.pi / 8.0)


def _loop_lp(lamK, ts, epsilon, degree):
    """Row-at-a-time construction of the indicator LP (reference oracle)."""
    ns = np.arange(-degree, degree + 1)
    N = ns.size
    nv = 5 * N
    c = np.zeros(nv)
    c[4 * N:] = 1.0
    c[:4 * N] = 1e-4
    rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
    for i in range(N):
        for blocks, r_coef in (((0, 1), -1.0), ((2, 3), -1.0), ((0, 1, 2, 3), -math.sqrt(2.0))):
            row = np.zeros(nv)
            for b in blocks:
                row[b * N + i] = 1.0
            row[4 * N + i] = r_coef
            rows_ub.append(row)
            rhs_ub.append(0.0)
    for lam in lamK:
        cn = np.cos(2.0 * np.pi * ns * lam)
        sn = np.sin(2.0 * np.pi * ns * lam)
        for parts, rhs in (((cn, -cn, -sn, sn), 1.0), ((sn, -sn, cn, -cn), 0.0)):
            rows_eq.append(np.concatenate(parts + (np.zeros(N),)))
            rhs_eq.append(rhs)
    for t in ts:
        cn = np.cos(2.0 * np.pi * ns * t)
        sn = np.sin(2.0 * np.pi * ns * t)
        for j in range(8):
            th = j * math.pi / 4.0
            pa = math.cos(th) * cn + math.sin(th) * sn
            ua = math.sin(th) * cn - math.cos(th) * sn
            rows_ub.append(np.concatenate([pa, -pa, ua, -ua, np.zeros(N)]))
            rhs_ub.append(epsilon * _COS8)
    return c, np.array(rows_eq), np.array(rhs_eq), np.array(rows_ub), np.array(rhs_ub)


def _unfold(c, A_eq, A_ub, N):
    """Check the fold's columns and link rows; compose the Re/Im rows with the links.

    The 2N folded values f_j = f+_j - f-_j sit in columns 5N + 2j, 5N + 2j + 1
    and appear only in the Re/Im rows, as +- pairs, and in the last 2N rows
    of A_eq, the links f_j = L_j . (p, q, u, w).  So every point of the
    unfolded LP extends to the folded one, and a Re/Im row R acts on
    (p, q, u, w) as R[f+] L.  Returns those composed rows and the Re/Im
    rows' columns past the fold (the lift).
    """
    fp = 5 * N + 2 * np.arange(2 * N)
    links, re_im = A_eq[-2 * N:], A_eq[:-2 * N]
    assert np.array_equal(links[:, fp], -np.eye(2 * N)) and np.array_equal(links[:, fp + 1], np.eye(2 * N))
    assert not links[:, 4 * N:5 * N].any() and not links[:, 9 * N:].any()
    assert np.count_nonzero(links, axis=1).max() <= 6
    # the Re/Im rows: folded values only, as +- pairs, at most 2N of them
    assert not re_im[:, :5 * N].any()
    assert np.array_equal(re_im[:, fp + 1], -re_im[:, fp])
    assert np.count_nonzero(re_im[:, 5 * N:9 * N], axis=1).max() <= 2 * N
    # the fold is free of cost and of inequality rows
    assert not c[5 * N:9 * N].any() and not A_ub[:, 5 * N:9 * N].any()
    return re_im[:, fp] @ links[:, :4 * N], re_im[:, 9 * N:]


@pytest.mark.parametrize("degree,n_k,n_f", [(24, 8, 24), (64, 4, 100), (128, 2, 200), (1, 1, 0), (9, 3, 0)])
def test_indicator_lp_matches_row_oracle(monkeypatch, degree, n_k, n_f):
    seen = _capture_lp(monkeypatch)
    K, F = _grid_kf(n_k, n_f)
    with pytest.raises(_Captured):
        approx_indicator(K, F, 0.05, degree=degree)
    c, b_eq, b_ub = (seen[k] for k in ("c", "b_eq", "b_ub"))
    A_eq, A_ub = seen["A_eq"].toarray(), seen["A_ub"].toarray()
    rc, rA_eq, rb_eq, rA_ub, rb_ub = _loop_lp(K.values(), np.array(F), 0.05, degree)
    N, k, m = 2 * degree + 1, n_k, n_f
    nv = 9 * N + 2 * m
    assert c.shape == (nv,) and A_eq.shape == (2 * k + 2 * m + 2 * N, nv) and A_ub.shape == (3 * N + 8 * m, nv)
    re_im, lift = _unfold(c, A_eq, A_ub, N)
    # objective and octagonal ceilings: the oracle's blocks, byte for byte
    assert np.array_equal(c[:5 * N], rc) and not c[9 * N:].any()
    assert np.array_equal(A_ub[:3 * N, :5 * N], rA_ub[:3 * N]) and not A_ub[:3 * N, 5 * N:].any()
    assert np.array_equal(b_ub[:3 * N], rb_ub[:3 * N])
    # K equalities: the folded rows composed with the links are the oracle's
    assert np.allclose(re_im[:2 * k], rA_eq[:, :4 * N], rtol=0, atol=1e-15) and not rA_eq[:, 4 * N:].any()
    assert not lift[:2 * k].any() and np.array_equal(b_eq[:2 * k], rb_eq) and not b_eq[-2 * N:].any()
    # Re phi(t) - P_t = Im phi(t) - Q_t = -eps on F
    assert np.array_equal(lift[2 * k:], -np.eye(2 * m)) and np.all(b_eq[2 * k:2 * k + 2 * m] == -0.05)
    # each cap is 2-sparse in (P_t, Q_t); composed with the Re/Im rows it is
    # the oracle's dense cap row, its right-hand side shifted by the lift
    caps, b_caps = A_ub[3 * N:], b_ub[3 * N:]
    assert not caps[:, :9 * N].any()
    for t in range(m):
        rows = caps[8 * t:8 * t + 8]
        assert not np.delete(rows, [9 * N + 2 * t, 9 * N + 2 * t + 1], axis=1).any()
        a, b = rows[:, 9 * N + 2 * t, None], rows[:, 9 * N + 2 * t + 1, None]
        composed = a * re_im[2 * k + 2 * t] + b * re_im[2 * k + 2 * t + 1]
        assert np.allclose(composed, rA_ub[3 * N + 8 * t:3 * N + 8 * t + 8, :4 * N], rtol=0, atol=1e-15)
        assert not rA_ub[3 * N + 8 * t:3 * N + 8 * t + 8, 4 * N:].any()
        shifted = b_caps[8 * t:8 * t + 8] - 0.05 * (a + b).ravel()
        assert np.allclose(shifted, rb_ub[3 * N + 8 * t:3 * N + 8 * t + 8], rtol=0, atol=1e-16)


def _lifted_loop_matrices(lamK, ts, degree):
    """Row-at-a-time dense A_eq and A_ub of the lifted indicator LP (reference oracle)."""
    ns = np.arange(-degree, degree + 1)
    N, k, m = ns.size, lamK.size, ts.size
    nv = 5 * N + 2 * m
    A_eq = np.zeros((2 * (k + m), nv))
    for i, lam in enumerate(np.concatenate([lamK, ts])):
        cn = np.cos(2.0 * np.pi * ns * lam)
        sn = np.sin(2.0 * np.pi * ns * lam)
        A_eq[2 * i, :4 * N] = np.concatenate([cn, -cn, -sn, sn])
        A_eq[2 * i + 1, :4 * N] = np.concatenate([sn, -sn, cn, -cn])
        if i >= k:
            A_eq[2 * i, 5 * N + 2 * (i - k)] = A_eq[2 * i + 1, 5 * N + 2 * (i - k) + 1] = -1.0
    A_ub = np.zeros((3 * N + 8 * m, nv))
    for i in range(N):
        for j, (blocks, r_coef) in enumerate(
            (((0, 1), -1.0), ((2, 3), -1.0), ((0, 1, 2, 3), -math.sqrt(2.0)))
        ):
            for b in blocks:
                A_ub[3 * i + j, b * N + i] = 1.0
            A_ub[3 * i + j, 4 * N + i] = r_coef
    for t in range(m):
        for j in range(8):
            th = j * math.pi / 4.0
            A_ub[3 * N + 8 * t + j, 5 * N + 2 * t] = math.cos(th)
            A_ub[3 * N + 8 * t + j, 5 * N + 2 * t + 1] = math.sin(th)
    return A_eq, A_ub


@pytest.mark.parametrize("degree,n_k,n_f", [(24, 8, 24), (64, 4, 100), (1, 1, 0), (9, 3, 0), (16, 1, 40)])
def test_indicator_lp_sparse_structure_matches_dense_oracle(degree, n_k, n_f):
    # the sparse build is csr_array of its dense form, entry for entry:
    # canonical indices, no explicit zeros (the sines on K at lambda = 0,
    # the zero mirror entries of the n = 0 links and the 0 in the first cap
    # direction are dropped; the 6e-17 cos(pi/2) caps stay); unfolded, its
    # rows are the dense lifted LP's
    K, F = _grid_kf(n_k, n_f)
    if n_k == 1:
        K = FiniteFrequencySet((Fraction(0),))  # lambda = 0: every sine on K is an exact zero
    lamK, ts = K.values(), np.array(F)
    c, A_eq, _, A_ub, _ = projector._indicator_lp(lamK, ts, 0.05, np.arange(-degree, degree + 1))
    for built in (A_eq, A_ub):
        # numpy readers of the matrices (np.asarray) get the dense array
        dense = np.asarray(built)
        assert isinstance(dense, np.ndarray) and np.array_equal(dense, built.toarray())
        ref = csr_array(dense)
        assert isinstance(built, csr_array) and built.shape == ref.shape
        assert built.has_canonical_format and np.all(built.data != 0.0)
        for field in ("indptr", "indices", "data"):
            got, want = getattr(built, field), getattr(ref, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    N = 2 * degree + 1
    A_eq, A_ub = A_eq.toarray(), A_ub.toarray()
    oracle_eq, oracle_ub = _lifted_loop_matrices(lamK, ts, degree)
    re_im, lift = _unfold(c, A_eq, A_ub, N)
    assert np.allclose(re_im, oracle_eq[:, :4 * N], rtol=0, atol=1e-15) and not oracle_eq[:, 4 * N:5 * N].any()
    assert np.array_equal(lift, oracle_eq[:, 5 * N:])
    assert np.array_equal(A_ub[:, :5 * N], oracle_ub[:, :5 * N]) and np.array_equal(A_ub[:, 9 * N:], oracle_ub[:, 5 * N:])


@pytest.mark.parametrize("degree,n_k,n_f,eps", [
    (24, 8, 24, 0.05), (32, 2, 30, 0.1), (40, 3, 40, 0.05), (12, 1, 8, 0.01), (1, 1, 0, 0.05), (9, 3, 0, 0.05),
    (64, 4, 100, math.exp(-2.0)),  # lp-certify's shape
])
def test_lifted_ipm_optimum_matches_oracle_simplex(degree, n_k, n_f, eps):
    K, F = _grid_kf(n_k, n_f)
    lamK, ts = K.values(), np.array(F)
    c, A_eq, b_eq, A_ub, b_ub = projector._indicator_lp(lamK, ts, eps, np.arange(-degree, degree + 1))
    rc, rA_eq, rb_eq, rA_ub, rb_ub = _loop_lp(lamK, ts, eps, degree)
    res = lp_solve(c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    ref = linprog(rc, A_ub=rA_ub, b_ub=rb_ub, A_eq=rA_eq, b_eq=rb_eq, bounds=(0.0, None), method="highs-ds")
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-9)
    assert res.duality_gap <= GAP_TOL * (1.0 + abs(res.objective))
    x = res.x[:rc.size]
    # the lifted solution satisfies every one of the oracle's rows
    assert np.max(rA_ub @ x - rb_ub) <= 1e-9
    assert np.max(np.abs(rA_eq @ x - rb_eq)) <= 1e-9


def test_indicator_degree128_envelope():
    # |K| = 2, |F| = 200 at the CLI's default degree: one lifted IPM solve
    K, F = _grid_kf(2, 200)
    t0 = time.perf_counter()
    ind = approx_indicator(K, F, 0.1, degree=128)
    elapsed = time.perf_counter() - t0
    assert 1.0 - 1e-6 <= ind.a_norm <= ind.lp_objective / _COS8 + 1e-8
    assert ind.lp_iterations > 0
    assert ind.lp_duality_gap <= GAP_TOL * (1.0 + ind.lp_objective)
    assert elapsed < 60.0  # ~2 s measured; the dense-cap LP under HiGHS simplex took ~120 s


def test_indicator_json_round_trip(golden_inds):
    ind = golden_inds[0.1]
    d = ind.to_json_dict()
    phi = SparseTrigPoly.from_json_dict(d["phi"])
    assert phi.coeffs == ind.phi.coeffs
    assert d["epsilon"] == 0.1


# ---------------------------------------------------------------------------
# projector_series
# ---------------------------------------------------------------------------

def test_series_epsilon_ladder(golden_kf):
    K, F = golden_kf
    series = projector_series(K, F, [2.0], 3, 24)[0]
    assert [ind.epsilon for ind in series] == pytest.approx(
        [math.exp(-2.0 * k) for k in (1, 2, 3)], rel=1e-15
    )


def test_series_sup_differences(golden_kf):
    K, F = golden_kf
    series = projector_series(K, F, [2.0], 3, 24)[0]
    pts = np.concatenate([K.values(), np.array(F)])
    for k in range(len(series) - 1):
        eps_k = series[k].epsilon
        d = np.max(np.abs(series[k + 1].phi.evaluate(pts[:, None]) - series[k].phi.evaluate(pts[:, None])))
        assert d <= 2.0 * eps_k + 1e-6


def test_series_refuses_a_sup_difference_past_two_eps(monkeypatch):
    # a second stage 1 away from the first on K breaks |phi_1 - phi_2| <= 2 eps_1
    K, F = FiniteFrequencySet((Fraction(0),)), [0.4, 0.6]
    real, bad = projector.approx_indicator, math.exp(-4.0)

    def stages(K, F_samples, epsilon, degree):
        if epsilon == bad:
            return SimpleNamespace(epsilon=epsilon, phi=SparseTrigPoly(1, {(0,): 2.0}))
        return real(K, F_samples, epsilon, degree)

    monkeypatch.setattr(projector, "approx_indicator", stages)
    with pytest.raises(OutOfRange, match="violates the 2 eps_k bound at k=1"):
        projector_series(K, F, [2.0], 2, 4)


def test_series_pool_matches_one_worker(golden_kf, monkeypatch, two_workers):
    K, F = golden_kf
    two = projector_series(K, F, [2.0], 3, 24)[0]
    monkeypatch.setenv("HELSON_LAB_THREADS", "1")
    one = projector_series(K, F, [2.0], 3, 24)[0]
    assert [ind.to_json_dict() for ind in two] == [ind.to_json_dict() for ind in one]


def test_series_solves_smallest_eps_first(monkeypatch, golden_kf):
    # the small-eps stages take the most iterations, so they are submitted first;
    # the series still comes back in eps order
    K, F = golden_kf
    real, submitted = projector.run_tasks, []

    def recording(stages, order):
        submitted.extend(order)
        return real(stages, order)

    monkeypatch.setattr(projector, "run_tasks", recording)
    series = projector_series(K, F, [2.0], 3, 24)[0]
    assert submitted == sorted(submitted) and len(submitted) == 3
    assert [ind.epsilon for ind in series] == sorted(submitted, reverse=True)


def test_series_stage_failure_propagates(monkeypatch, golden_kf, two_workers):
    # one stage raising on the pool surfaces in the caller; the run ends
    K, F = golden_kf
    real = projector.approx_indicator
    failing = math.exp(-4.0)

    def flaky(K, F_samples, epsilon, degree):
        if epsilon == failing:
            raise InfeasibleSeparation(f"stage eps={epsilon} refused")
        return real(K, F_samples, epsilon, degree)

    monkeypatch.setattr(projector, "approx_indicator", flaky)
    raised: list = []

    def run():
        try:
            projector_series(K, F, [2.0], 3, 24)
        except InfeasibleSeparation as exc:
            raised.append(exc)

    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive()
    assert len(raised) == 1 and "refused" in str(raised[0])


def test_series_floor_drops_tiny_terms():
    # p = 16: eps_2 = e^{-32} ~ 1.3e-14 kept, eps_3 = e^{-48} dropped
    series = projector_series(FiniteFrequencySet((Fraction(0),)), [0.4, 0.6], [16.0], 3, 4)[0]
    assert len(series) == 2


def test_series_guards(golden_kf):
    K, F = golden_kf
    with pytest.raises(OutOfRange):
        projector_series(K, F, [1.5], 2, 24)
    with pytest.raises(OutOfRange):
        projector_series(K, F, [17.0], 2, 24)
    with pytest.raises(OutOfRange):
        projector_series(K, F, [2.0], 0, 24)
    with pytest.raises(OutOfRange):
        projector_series(K, F, [2.0], 7, 24)


# ---------------------------------------------------------------------------
# rotation model and projectors
# ---------------------------------------------------------------------------

def _model(n_modes: int = 8) -> RotationModel:
    return RotationModel(GOLDEN, tuple((m, complex(1.0 + 0.1 * m, -0.05 * m)) for m in range(1, n_modes + 1)))


def test_model_spectral_measure_weights():
    # the spectral measure puts |c_m|^2 at each eigenvalue; its mass is ||f||_2^2
    model = _model(4)
    assert model.l2_norm() == pytest.approx(math.sqrt(sum(abs(c) ** 2 for _, c in model.modes)))


def test_eigenvalue_reduces_tiny_negative_to_zero():
    assert RotationModel(1e-20, ((-1, 1.0),)).eigenvalue(-1) == 0.0


def test_projector_idempotent():
    model = _model()
    K = FiniteFrequencySet(tuple(model.eigenvalue(m) for m in (2, 5)))
    pf, kept = apply_projector(model, K)
    model2 = RotationModel(model.alpha_rot, tuple((m, pf.coeffs[(m,)]) for m in kept))
    pf2, kept2 = apply_projector(model2, K)
    assert kept2 == kept
    assert l2_coeff_distance(pf2, pf) == 0.0


def test_projectors_commute_as_intersection():
    model = _model()
    K1 = FiniteFrequencySet(tuple(model.eigenvalue(m) for m in (1, 2, 3)))
    K2 = FiniteFrequencySet(tuple(model.eigenvalue(m) for m in (3, 4)))
    K12 = FiniteFrequencySet((model.eigenvalue(3),))
    pf1, kept1 = apply_projector(model, K1)
    inner = RotationModel(model.alpha_rot, tuple((m, pf1.coeffs[(m,)]) for m in kept1))
    pf12, kept12 = apply_projector(inner, K2)
    pf_direct, kept_direct = apply_projector(model, K12)
    assert kept12 == kept_direct == [3]
    assert l2_coeff_distance(pf12, pf_direct) == 0.0


def test_projector_conjugation_inverts_frequencies():
    model = _model()
    K = FiniteFrequencySet(tuple(model.eigenvalue(m) for m in (2, 6)))
    _, kept = apply_projector(model, K)
    conj_model = RotationModel(model.alpha_rot, tuple((-m, c.conjugate()) for m, c in model.modes))
    K_inv = FiniteFrequencySet(tuple(-f for f in K.freqs))
    _, kept_conj = apply_projector(conj_model, K_inv)
    assert sorted(kept_conj) == sorted(-m for m in kept)


def test_projector_tol_match_fattening():
    # K is fattened by the fixed match tolerance 1e-9, from both sides:
    # an eigenvalue 5e-10 off K is kept, one 2e-9 off is not
    model = _model()
    assert projector._MATCH_TOL == 1e-9
    for offset, want in ((5e-10, [3]), (-5e-10, [3]), (2e-9, []), (-2e-9, [])):
        _, kept = apply_projector(model, FiniteFrequencySet((model.eigenvalue(3) + offset,)))
        assert kept == want, offset


def test_projector_trivial_cases():
    model = _model()
    _, kept_none = apply_projector(model, FiniteFrequencySet((0.123456789,)))
    assert kept_none == []
    K_all = FiniteFrequencySet(tuple(model.eigenvalue(m) for m, _ in model.modes))
    pf_all, kept_all = apply_projector(model, K_all)
    assert kept_all == [m for m, _ in model.modes]
    assert l2_coeff_distance(pf_all, model.poly()) == 0.0


def test_filter_matches_projector_within_eps():
    model = _model()
    eigs = sorted(model.eigenvalue(m) for m, _ in model.modes)
    Kp = (eigs[0], eigs[4])
    K = FiniteFrequencySet(Kp)
    F = [e for e in eigs if e not in set(Kp)]
    ind = approx_indicator(K, F, 0.01, degree=12)
    filt = filter_with_indicator(model, ind.phi)
    exact, _ = apply_projector(model, K)
    assert l2_coeff_distance(filt, exact) <= 0.01 * model.l2_norm()


# ---------------------------------------------------------------------------
# lp_norm_growth
# ---------------------------------------------------------------------------

def test_lp_growth_identity_when_K_covers():
    model = _model()
    K = FiniteFrequencySet(tuple(model.eigenvalue(m) for m, _ in model.modes))
    out = lp_norm_growth(model, K, p_list=[2, 4, 8], grid=4096)
    for row in out["rows"]:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-9)
        assert row["c_at_p"] == pytest.approx(row["ratio"] / row["p"])
    assert out["least_feasible_C"] == pytest.approx(0.5, abs=1e-9)
    assert out["kept_modes"] == [m for m, _ in model.modes]


def test_lp_growth_zero_when_K_misses():
    model = _model()
    out = lp_norm_growth(model, FiniteFrequencySet((0.987654321,)), p_list=[2, 4], grid=4096)
    assert all(row["ratio"] == 0.0 for row in out["rows"])


def test_lp_growth_guards():
    model = _model()
    K = FiniteFrequencySet((model.eigenvalue(1),))
    with pytest.raises(OutOfRange):
        lp_norm_growth(model, K, p_list=[2, 4], grid=1024)
    with pytest.raises(OutOfRange):
        lp_norm_growth(model, K, p_list=[1.5], grid=4096)
    with pytest.raises(OutOfRange):
        lp_norm_growth(model, K, p_list=[2, 32], grid=4096)


def test_lp_growth_refuses_aliased_grid():
    # modes 1 and 4097 share a bin mod 4096, which read the p = 2 ratio as 0.5
    model = RotationModel(GOLDEN, ((1, 1.0), (4097, 1.0)))
    K = FiniteFrequencySet((model.eigenvalue(1),))
    with pytest.raises(OutOfRange):
        lp_norm_growth(model, K, p_list=[2, 4], grid=4096)
    out = lp_norm_growth(model, K, p_list=[2, 4], grid=4 * 4097)
    assert abs(out["rows"][0]["ratio"] - 1.0 / math.sqrt(2.0)) <= 1e-12
