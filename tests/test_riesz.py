"""Riesz-product measures: closed form vs FFT oracle, decay profiles."""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helson_lab import riesz, torus
from helson_lab.errors import NotDissociate, OutOfRange
from helson_lab.riesz import (
    RieszProductSpec,
    dense_coefficient_oracle,
    full_support,
    rigidity_search,
)


def _random_dissociate_spec(rng: np.random.Generator, N: int, alpha: float) -> RieszProductSpec:
    # doubling growth with random factors; sum stays below 8000 for N <= 12
    freqs = []
    total = 0
    n = int(rng.integers(1, 4))
    for _ in range(N):
        freqs.append(n)
        total += n
        n = 2 * total + int(rng.integers(1, max(2, total // 3)))
    while sum(freqs) > 8000:
        freqs.pop()
    return RieszProductSpec(alpha, tuple(freqs))


# ---------------------------------------------------------------------------
# construction / dissociateness
# ---------------------------------------------------------------------------

def test_not_dissociate_rejected():
    with pytest.raises(NotDissociate):
        RieszProductSpec(0.5, (1, 2, 3))  # 1 + 2 - 3 = 0
    with pytest.raises(NotDissociate):
        RieszProductSpec(0.5, (2, 3, 5))  # 2 + 3 - 5 = 0
    with pytest.raises(NotDissociate):
        RieszProductSpec(0.5, (3, 5, 8))


def test_dissociate_accepted():
    RieszProductSpec(1.0, tuple(3 ** j for j in range(1, 9)))
    RieszProductSpec(0.5, (5, 8, 12))  # dissociate despite 12 - 8 < 5


def test_doubling_criterion_large_n():
    # at the largest N the exhaustive certificate accepts a doubling list
    # and rejects one whose last gap is n_1; a longer list is refused
    freqs = []
    total = 0
    n = 1
    for _ in range(24):
        freqs.append(n)
        total += n
        n = 2 * total + 1
    RieszProductSpec(0.3, tuple(freqs[:12]))
    bad = freqs[:12]
    bad[-1] = bad[-2] + 1  # still increasing, n_12 - n_11 - n_1 = 0
    with pytest.raises(NotDissociate):
        RieszProductSpec(0.3, tuple(bad))
    with pytest.raises(OutOfRange):
        RieszProductSpec(0.3, tuple(freqs))


def test_spec_refuses_more_than_twelve_frequencies(monkeypatch):
    # refused before certification: 3^N support points are the envelope
    def certify(freqs):
        raise AssertionError(f"certified {len(freqs)} frequencies")

    monkeypatch.setattr(riesz, "_certify_dissociate", certify)
    for N in (13, 24):
        with pytest.raises(OutOfRange, match=f"N = {N}"):
            RieszProductSpec(0.5, tuple(3 ** j for j in range(1, N + 1)))


def test_alpha_domain():
    with pytest.raises(OutOfRange):
        RieszProductSpec(1.5, (3, 9))
    with pytest.raises(OutOfRange):
        RieszProductSpec(0.0, (3, 9))


def _signed_sums_oracle(freqs, coeffs) -> np.ndarray:
    """The former riesz._signed_sums: all sums sum_j c_j n_j with each c_j over coeffs, as int64."""
    cs = np.array(coeffs, dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for n in freqs:
        sums = (sums[:, None] + np.int64(n) * cs[None, :]).ravel()
    return sums


@pytest.mark.parametrize("freqs", [
    (5,), (5, 8), (5, 8, 12), tuple(3 ** j for j in range(1, 13)),
    _random_dissociate_spec(np.random.default_rng(4), 9, 0.5).freqs,
    _random_dissociate_spec(np.random.default_rng(5), 12, 0.5).freqs,
])
def test_tables_from_shared_enumerator_equal_signed_sums(freqs, monkeypatch):
    half = len(freqs) // 2
    parts = (freqs[:half], freqs[half:])
    built = []

    def record(tables):
        built.append(torus._grid_sums(tables))
        return built[-1]

    monkeypatch.setattr(riesz, "_grid_sums", record)
    riesz._certify_dissociate(freqs)
    for got, part in zip(built, parts):
        want = _signed_sums_oracle(part, (-2, -1, 0, 1, 2))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for (sums, nnz), part in zip(riesz._mitm_tables(freqs), parts):
        want = _signed_sums_oracle(part, (0, 1, -1))
        want_nnz = _signed_sums_oracle((1,) * len(part), (0, 1, 1))
        assert sums.dtype == nnz.dtype == np.int64
        assert np.array_equal(sums, want) and np.array_equal(nnz, want_nnz)


# ---------------------------------------------------------------------------
# closed-form coefficients
# ---------------------------------------------------------------------------

def _coefficient(spec: RieszProductSpec, m: int) -> float:
    """sigma_hat(m) read off full_support; 0 off the representable set."""
    ms, coeffs = full_support(spec)
    return dict(zip(ms.tolist(), coeffs.tolist())).get(m, 0.0)


def test_fourier_examples():
    assert _coefficient(RieszProductSpec(0.5, (1,)), 1) == pytest.approx(0.25)
    spec = RieszProductSpec(0.5, (3, 9))
    assert _coefficient(spec, 12) == pytest.approx(0.0625)
    assert _coefficient(spec, 6) == pytest.approx(0.0625)  # 9 - 3
    assert _coefficient(spec, 5) == 0.0
    assert _coefficient(spec, 0) == 1.0
    assert _coefficient(spec, -12) == pytest.approx(0.0625)


def test_fourier_matches_oracle_examples():
    spec = RieszProductSpec(0.5, (3, 9))
    dense = dense_coefficient_oracle(spec, 1 << 14)
    assert abs(dense[12] - 0.0625) < 1e-10
    assert abs(dense[5]) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_fourier_matches_oracle_random(seed):
    rng = np.random.default_rng(300 + seed)
    spec = _random_dissociate_spec(rng, 10, float(rng.uniform(0.2, 1.0)))
    grid = 1 << 14
    dense = dense_coefficient_oracle(spec, grid)
    expected = np.zeros(grid, dtype=complex)
    ms, coeffs = full_support(spec)
    for m, c in zip(ms, coeffs):
        expected[int(m) % grid] += c
    assert np.max(np.abs(dense - expected)) <= 1e-10


def test_density_positive_and_mass_one():
    spec = RieszProductSpec(1.0, (3, 9, 27))
    d = spec.density_on_grid(4 * 27 * 4)
    assert np.min(d) >= -1e-9
    assert np.mean(d) == pytest.approx(1.0, abs=1e-12)
    assert _coefficient(spec, 0) == 1.0


def test_parseval_cross_check():
    rng = np.random.default_rng(77)
    spec = _random_dissociate_spec(rng, 9, 0.8)
    ms, coeffs = full_support(spec)
    lhs = float(np.sum(coeffs ** 2))
    # closed form: prod (1 + alpha^2 / 2)
    assert lhs == pytest.approx((1 + spec.alpha ** 2 / 2) ** len(spec.freqs), rel=1e-12)
    grid = 4 * (sum(spec.freqs) + 1)
    d = spec.density_on_grid(grid)
    rhs = float(np.mean(d * d))
    assert lhs == pytest.approx(rhs, abs=1e-8)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _power_profile(spec, k, m_range):
    """The CLI's k-fold convolution profile: the rigidity point, its ratio to the k."""
    g, ratio = rigidity_search(spec, m_range)
    return ratio ** k, (0 if (g, ratio) == (1, 0.0) else g)


def test_profile_examples():
    spec = RieszProductSpec(0.5, tuple(3 ** j for j in range(1, 9)))
    assert _power_profile(spec, 1, 10 ** 4) == (0.25, 3)
    val, arg = _power_profile(spec, 3, 10 ** 4)
    assert val == pytest.approx(0.015625)
    assert arg == 3
    spec_full = RieszProductSpec(1.0, (7, 15, 31))
    assert _power_profile(spec_full, 1, 100)[0] == pytest.approx(0.5)


def test_profile_power_is_bit_exact():
    spec = RieszProductSpec(0.7, (4, 9, 19))
    v1, m1 = _power_profile(spec, 1, 1000)
    v5, m5 = _power_profile(spec, 5, 1000)
    assert v5 == v1 ** 5  # same float powered
    assert m5 == m1


def test_profile_tie_break_smallest_m():
    spec = RieszProductSpec(0.5, (5, 8, 12))
    # level-1 points 5, 8, 12 all in range; smallest wins
    assert _power_profile(spec, 1, 100)[1] == 5
    # range below n_1 still catches the level-2 points 8 - 5 = 3 and 12 - 8 = 4
    val, arg = _power_profile(spec, 1, 4)
    assert arg == 3
    assert val == pytest.approx(0.0625)


def test_rigidity_examples():
    spec = RieszProductSpec(0.5, (3, 9))
    assert rigidity_search(spec, 100) == (3, 0.25)
    assert rigidity_search(RieszProductSpec(1.0, (2,)), 10) == (2, 0.5)
    empty = RieszProductSpec(0.4, ())
    assert rigidity_search(empty, 50) == (1, 0.0)
    assert _power_profile(empty, 2, 50) == (0.0, 0)
    # no support point in range: 3 - 2 = 1 is the least, so a range of 0 holds none
    assert rigidity_search(RieszProductSpec(0.5, (2, 3)), 0) == (1, 0.0)


def test_rigidity_refuses_range_above_1e7():
    with pytest.raises(OutOfRange):
        rigidity_search(RieszProductSpec(0.5, (3, 9)), 10 ** 7 + 1)


def test_rigidity_bounded_by_half_alpha():
    spec = RieszProductSpec(0.9, (4, 9, 19, 40))
    g, val = rigidity_search(spec, 10 ** 5)
    assert val <= 0.9 / 2 + 1e-15
    assert g == 4


@lru_cache(maxsize=1)  # the eight queries of one example share a scan
def _levels_by_sign_scan(freqs):
    """The m of every sign pattern on L = 1..N nonzero signs, one Python sum per pattern."""
    return tuple(
        tuple(sum(map(operator.mul, signs, vals))
              for vals in itertools.combinations(freqs, L)
              for signs in itertools.product((-1, 1), repeat=L))
        for L in range(1, len(freqs) + 1)
    )


def _support_by_sign_scan(freqs, m_range, positive_only):
    """Reference search: the first level with a point in range, its smallest |m|, positive first."""
    for L, ms in enumerate(_levels_by_sign_scan(freqs), start=1):
        best = None
        for m in ms:
            if (positive_only and m <= 0) or m == 0 or abs(m) > m_range:
                continue
            if best is None or (abs(m), m < 0) < (abs(best), best < 0):
                best = m
        if best is not None:
            return L, best
    return None


@st.composite
def _dissociate_freqs(draw):
    kind = draw(st.sampled_from(["doubling", "powers of 3", "ties"]))
    if kind == "ties":
        return (5, 8, 12)
    N = draw(st.integers(1, 12))
    if kind == "powers of 3":
        start = draw(st.integers(0, 1))
        return tuple(3 ** j for j in range(start, start + N))
    freqs, total = [draw(st.integers(1, 5))], 0
    for _ in range(N - 1):
        total += freqs[-1]
        freqs.append(2 * total + draw(st.integers(1, max(1, total))))
    return tuple(freqs)


@settings(max_examples=30, deadline=None)
@given(_dissociate_freqs())
@example((5, 8, 12))
@example(tuple(3 ** j for j in range(1, 13)))
def test_support_selection_matches_sign_scan(freqs):
    # the profile and the rigidity search read the same point: the
    # support is symmetric, and the positive twin wins the tie
    spec = RieszProductSpec(0.5, freqs)
    for m_range in (1, 2, freqs[0] - 1, 10 ** 7):
        for positive_only in (False, True):
            expected = _support_by_sign_scan(freqs, m_range, positive_only)
            if expected is None:
                assert rigidity_search(spec, m_range) == (1, 0.0)
                assert _power_profile(spec, 3, m_range) == (0.0, 0)
            else:
                level, m = expected
                assert rigidity_search(spec, m_range) == (m, 0.25 ** level)
                assert _power_profile(spec, 3, m_range) == ((0.25 ** level) ** 3, m)


def test_profiles_refuse_thirteen_frequencies():
    # the spec refuses N = 13, so no profile of it is ever computed
    freqs = tuple(3 ** j for j in range(1, 14))
    with pytest.raises(OutOfRange):
        _power_profile(RieszProductSpec(0.5, freqs), 1, 10)
    with pytest.raises(OutOfRange):
        rigidity_search(RieszProductSpec(0.5, freqs), 10)
