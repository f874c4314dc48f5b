"""Riesz-product expansion, z-bar extraction, and mixed coefficient maps."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helson_lab.drury as drury
from helson_lab.drury import (
    DruryFunction,
    _support_strata,
    expand_Q,
    extract_P,
    mix_drury,
)
from helson_lab.errors import MomentCheckFailed, OutOfRange
from helson_lab.mela import SignedGridMeasure, solve_mela
from helson_lab.torus import (
    SparseTrigPoly,
    a_norm_lattice,
    dense_fft_oracle,
    l1_norm_monte_carlo,
    l1_norm_torus,
)


@pytest.fixture(scope="module")
def mela_measures():
    """The mixing measures of the acceptance Drury pipeline, by epsilon."""
    return {eps: solve_mela(eps)[0] for eps in (0.1, 0.01)}


# ---------------------------------------------------------------------------
# expand_Q
# ---------------------------------------------------------------------------

def test_expand_q_single_factor():
    q = expand_Q(1, 0.5)
    assert q.coeffs == {(0, 0): 1.0, (1, 1): 0.5, (-1, -1): 0.5}


def test_expand_q_two_factors():
    q = expand_Q(2, 0.3)
    assert len(q.coeffs) == 9
    assert q.coeffs[(1, 1, 2)] == pytest.approx(0.09)
    assert q.coeffs[(0, 0, 0)] == pytest.approx(1.0)


def test_expand_q_domain():
    with pytest.raises(OutOfRange):
        expand_Q(2, 0.6)
    with pytest.raises(OutOfRange):
        expand_Q(0, 0.3)
    with pytest.raises(OutOfRange):
        expand_Q(15, 0.3)


def test_expand_q_l1_norm_is_one():
    # nonnegative density with constant coefficient 1
    for n in (1, 2, 3):
        for s in (0.1, 0.3, 0.5):
            q = expand_Q(n, s)
            assert l1_norm_torus(q, 16) == pytest.approx(1.0, abs=1e-9)


def test_expand_q_positive_on_grid():
    for n in (1, 2, 3):
        for s in (0.1, 0.3, 0.5):
            q = expand_Q(n, s)
            pts = np.stack(
                [m.ravel() for m in np.meshgrid(*[np.arange(32) / 32] * (n + 1), indexing="ij")],
                axis=1,
            )
            vals = q.evaluate(pts)
            assert np.max(np.abs(vals.imag)) < 1e-9
            assert np.min(vals.real) >= -1e-9


def test_expand_q_matches_oracle():
    for n in (1, 2):
        q = expand_Q(n, 0.5)
        dense = dense_fft_oracle(q, 8)
        for m, c in q.coeffs.items():
            assert dense[tuple(x % 8 for x in m)] == pytest.approx(c, abs=1e-10)
        assert np.sum(np.abs(dense)) == pytest.approx(
            sum(abs(c) for c in q.coeffs.values()), abs=1e-9
        )


# ---------------------------------------------------------------------------
# extract_P
# ---------------------------------------------------------------------------

def test_extract_p_small_dims():
    assert extract_P(1, 0.4).coeffs == {(-1,): 0.4}
    assert extract_P(2, 0.4).coeffs == {(-1, 0): 0.4, (0, -1): 0.4}
    p3 = extract_P(3, 0.4)
    assert len(p3.coeffs) == 6
    basis_vals = [p3.coeffs[m] for m in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]]
    assert basis_vals == [0.4, 0.4, 0.4]
    odd = [c for m, c in p3.coeffs.items() if sum(m) == -1 and sorted(m) == [-1, -1, 1]]
    assert len(odd) == 3
    assert all(c == 0.4 ** 3 for c in odd)


def test_extract_p_equals_zbar_slice_of_q():
    for n in (1, 2, 3):
        s = 0.35
        q = expand_Q(n, s)
        p = extract_P(n, s)
        slice_coeffs = {
            m[:-1]: c for m, c in q.coeffs.items() if m[-1] == -1
        }
        assert slice_coeffs == p.coeffs


def test_extract_p_powers_bit_exact():
    p = extract_P(5, 0.3)
    for m, c in p.coeffs.items():
        a = sum(1 for x in m if x == 1)
        assert c == 0.3 ** (2 * a + 1)  # exact float equality


def test_extract_p_matches_oracle():
    for n in (1, 2, 3):
        p = extract_P(n, 0.45)
        dense = dense_fft_oracle(p, 8)
        for m, c in p.coeffs.items():
            assert dense[tuple(x % 8 for x in m)] == pytest.approx(c, abs=1e-10)


def test_extract_p_l1_below_one():
    for n in (1, 2, 3):
        assert l1_norm_torus(extract_P(n, 0.5), 16) <= 1.0 + 1e-9
    est, se = l1_norm_monte_carlo(extract_P(8, 0.3), 20000, seed=4)
    assert est <= 1.0 + 3 * se


# ---------------------------------------------------------------------------
# support size
# ---------------------------------------------------------------------------

def test_support_count_matches_extract():
    # closed form: sum_a C(n, a) C(n - a, a + 1) points 1_A - 1_B, |B| = |A| + 1
    for n in (1, 2, 3, 4, 5, 6):
        count = sum(math.comb(n, a) * math.comb(n - a, a + 1) for a in range((n - 1) // 2 + 1))
        assert count == len(extract_P(n, 0.25).coeffs)


# ---------------------------------------------------------------------------
# mix_drury
# ---------------------------------------------------------------------------

def test_mix_single_atom_n2():
    sigma = SignedGridMeasure.from_atoms([(0.5, 2.0)])
    for eps in (0.5, 0.01, 1e-6):
        d = mix_drury(2, sigma, eps)
        for b in d.basis_points():
            assert d.psi.coeffs[b] == pytest.approx(1.0, abs=1e-12)
        assert d.max_off_basis() == 0.0  # no odd-power strata at n = 2
        assert d.a_norm_bound == pytest.approx(2.0)


def test_mix_basis_equals_first_moment():
    sigma = SignedGridMeasure.from_atoms([(0.2, 2.0), (0.4, 1.0), (0.5, 0.4)])
    first = sigma.moment(1)
    assert first == pytest.approx(1.0, abs=1e-12)
    d = mix_drury(4, sigma, epsilon=1.0)
    for b in d.basis_points():
        assert d.psi.coeffs[b] == first  # exact finite sum, same code path


def test_mix_moment_check_failed():
    sigma = SignedGridMeasure.from_atoms([(0.5, 2.0)])
    # third moment 0.25 > 0.1 matters once n >= 3
    with pytest.raises(MomentCheckFailed):
        mix_drury(3, sigma, epsilon=0.1)
    bad = SignedGridMeasure.from_atoms([(0.25, 2.0)])  # first moment 0.5
    with pytest.raises(MomentCheckFailed):
        mix_drury(2, bad, epsilon=0.1)


def test_mix_with_solved_measure_n3():
    eps = math.exp(-2.0)
    sigma, cert = solve_mela(eps)
    d = mix_drury(3, sigma, eps)
    assert d.a_norm_bound <= 10.0  # 2*2 + 6
    assert d.max_off_basis() <= eps + 1e-8


def test_mix_off_basis_bound_n8():
    sigma, cert = solve_mela(0.1)
    d = mix_drury(8, sigma, 0.1)
    assert d.max_off_basis() <= 0.1 + 1e-8
    # psi values on the support are the stratum moments
    vals = {abs(c) for m, c in d.psi.coeffs.items() if m not in set(d.basis_points())}
    assert len(vals) <= 3  # one modulus per stratum a = 1, 2, 3


def test_mix_monte_carlo_l1_below_tv():
    sigma, cert = solve_mela(0.1)
    d = mix_drury(6, sigma, 0.1)
    est, se = l1_norm_monte_carlo(d.psi, 20000, seed=8)
    assert est <= sigma.total_variation + 3 * se


def test_drury_function_rejects_bad_basis():
    with pytest.raises(OutOfRange):
        DruryFunction(2, (0.9,), 1.0, 0.1)


def test_moment_checks_run_at_construction():
    # first moment 0.9, or the order-3 (a = 1) and order-5 (a = 2) moments above epsilon
    for moments, named in (((0.9,), "first moment"), ((1.0, 0.2), "order 3"),
                           ((1.0, 0.0, -0.3), "order 5")):
        n = 2 * len(moments) - 1
        with pytest.raises(MomentCheckFailed, match=named) as exc:
            DruryFunction(n, moments, 1.0, 0.1)
        assert isinstance(exc.value, OutOfRange)
    DruryFunction(3, (1.0 - 5e-9, -0.1 - 5e-9), 1.0, 0.1)  # within both tolerances
    sigma = SignedGridMeasure.from_atoms([(0.5, 2.0)])  # first moment 1, third 0.25
    with pytest.raises(MomentCheckFailed, match="order 3"):
        mix_drury(3, sigma, epsilon=0.1)
    with pytest.raises(MomentCheckFailed, match="first moment"):
        mix_drury(2, SignedGridMeasure.from_atoms([(0.25, 2.0)]), epsilon=0.1)


def test_drury_function_guards():
    with pytest.raises(OutOfRange):
        DruryFunction(3, (1.0, 0.2), 1.0, 0.1)  # off-basis moment above epsilon
    with pytest.raises(OutOfRange):
        DruryFunction(3, (1.0,), 1.0, 0.1)  # n = 3 has two strata
    for n in (0, 15):
        with pytest.raises(OutOfRange):
            DruryFunction(n, (1.0,) * max(1, (n - 1) // 2 + 1), 1.0, 0.1)
        with pytest.raises(OutOfRange):
            mix_drury(n, SignedGridMeasure.from_atoms([(0.5, 2.0)]), 0.5)


# ---------------------------------------------------------------------------
# moment-held Drury functions against the explicit support
# ---------------------------------------------------------------------------

def _eager_psi(n, moments):
    """psi as mix_drury built it eagerly: one term per support point."""
    coeffs = {}
    for a, m in _support_strata(n):
        coeffs[m] = moments[a]
    return SparseTrigPoly(n, coeffs)


def _max_off_enumerated(d):
    """max_off_basis as a scan of the whole support."""
    basis = set(d.basis_points())
    off = [abs(c) for m, c in d.psi.coeffs.items() if m not in basis]
    return max(off) if off else 0.0


_moment = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, 1e-16, -1e-15, 2e-15]),  # around the 1e-15 prune
)
_coord = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1e-9),
    st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_evaluate_matches_sparse_evaluation(n, data):
    top = (n - 1) // 2
    first = data.draw(st.floats(1.0 - 1e-9, 1.0 + 1e-9))
    higher = data.draw(st.lists(_moment, min_size=top, max_size=top))
    d = DruryFunction(n, (first, *higher), 1.0, epsilon=2.0)
    pts = np.array(
        data.draw(st.lists(st.lists(_coord, min_size=n, max_size=n), min_size=1, max_size=16))
    )
    ref = d.psi.evaluate(pts)
    # the sparse sum rounds each phase 2 pi m.t, of size up to 2 pi n, after
    # up to n additions; the recurrence's n products round far less
    tol = 2 * np.pi * n * n * np.finfo(float).eps * a_norm_lattice(d.psi)
    assert np.max(np.abs(d.evaluate(pts) - ref)) <= tol


def test_evaluate_accepts_one_dimensional_points():
    d = DruryFunction(1, (1.0,), 1.0, 0.1)
    t = np.array([0.0, 0.25, 0.9])
    assert np.allclose(d.evaluate(t), np.exp(-2j * np.pi * t), atol=1e-15)
    with pytest.raises(OutOfRange):
        d.evaluate(np.zeros((2, 3)))


@pytest.mark.parametrize("n", range(1, 11))
def test_max_off_basis_matches_support_scan(n, mela_measures):
    top = (n - 1) // 2
    rng = np.random.default_rng(n)
    variants = [
        rng.uniform(-0.1, 0.1, top),
        np.full(top, 1e-15),  # pruned: no off-basis term survives
        np.resize([1e-16, -0.03, 2e-15], top),
    ]
    for higher in variants:
        d = DruryFunction(n, (1.0, *higher), 1.0, 0.1)
        assert d.max_off_basis() == _max_off_enumerated(d)
    for eps, sigma in mela_measures.items():
        d = mix_drury(n, sigma, eps)
        assert d.max_off_basis() == _max_off_enumerated(d)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_lazy_psi_equals_eager_construction(n, mela_measures):
    sigma = mela_measures[0.01]
    d = mix_drury(n, sigma, 0.01)
    assert "psi" not in d.__dict__
    eager = _eager_psi(n, [sigma.moment(2 * a + 1) for a in range((n - 1) // 2 + 1)])
    assert list(d.psi.coeffs.items()) == list(eager.coeffs.items())
    assert d.to_json_dict() == {
        "dim": n,
        "epsilon": 0.01,
        "a_norm_bound": sigma.total_variation,
        "psi": eager.to_json_dict(),
    }
    # psi is the sigma-mixture of the z-bar slices P_s
    if n <= 6:
        mixed = {}
        for s, w in sigma.atoms:
            for m, c in extract_P(n, s).coeffs.items():
                mixed[m] = mixed.get(m, 0.0) + w * c
        for m, c in d.psi.coeffs.items():
            assert mixed[m] == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_monte_carlo_matches_sparse_path(n, eps, mela_measures):
    d = mix_drury(n, mela_measures[eps], eps)
    seed = 7 + 11 * n  # the acceptance pipeline's draw at seed 7
    fast = l1_norm_monte_carlo(d, 8000, seed=seed)
    slow = l1_norm_monte_carlo(d.psi, 8000, seed=seed)
    assert fast == pytest.approx(slow, rel=1e-12, abs=0)


def test_envelope_corner_n14_without_support(mela_measures):
    start = time.perf_counter()
    d = mix_drury(14, mela_measures[0.01], 0.01)
    off = d.max_off_basis()
    mc, se = l1_norm_monte_carlo(d, 8000, seed=1)
    elapsed = time.perf_counter() - start
    assert "psi" not in d.__dict__  # the 585,690-term support was never built
    assert off <= 0.01 + 1e-8
    assert 1.0 - 3 * se <= mc <= d.a_norm_bound + 3 * se
    assert elapsed < 5.0


def test_evaluate_chunks_bound_the_working_set(monkeypatch):
    d = DruryFunction(14, (1.0, 0.01, -0.01, 0.005, 0.0, 0.002, -0.001), 7.0, 0.01)
    pts = np.random.default_rng(0).random((3000, 14))
    whole = d.evaluate(pts)
    budget = 3 * 7 * 8 * 100  # entries: 100 points per chunk at n = 14
    monkeypatch.setattr(drury, "_EVAL_CHUNK_ENTRIES", budget)
    tracemalloc.start()
    try:
        chunked = d.evaluate(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, whole)
    # beyond the output, only one chunk's complex scratch is alive
    assert peak <= chunked.nbytes + 2 * 16 * budget
