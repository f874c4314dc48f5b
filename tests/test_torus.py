"""Foundational types: norms, oracle equivalence, measures, independence."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helson_lab import torus
from helson_lab.errors import BudgetExceeded, DimensionTooLarge, OutOfRange
from helson_lab.torus import (
    FLOAT_FREQ_TOL,
    AtomicCircleMeasure,
    FiniteFrequencySet,
    IndependenceVerdict,
    SparseTrigPoly,
    _canonical_sign,
    _check_distinct,
    _mu_hat_scan,
    a_norm_lattice,
    dense_fft_oracle,
    golden_min,
    independence_check,
    l1_norm_monte_carlo,
    l1_norm_torus,
    parse_frequency,
)


def _random_poly(rng: np.random.Generator, dim: int, degree: int, n_terms: int) -> SparseTrigPoly:
    coeffs = {}
    for _ in range(n_terms):
        m = tuple(int(x) for x in rng.integers(-degree, degree + 1, size=dim))
        coeffs[m] = complex(rng.normal(), rng.normal())
    return SparseTrigPoly(dim, coeffs)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_poly_prunes_zero_coefficients():
    p = SparseTrigPoly(1, {(0,): 1.0, (1,): 1e-16})
    assert set(p.coeffs) == {(0,)}


def test_poly_rejects_wrong_key_length():
    with pytest.raises(OutOfRange):
        SparseTrigPoly(2, {(1,): 1.0})


def test_measure_rejects_duplicate_frequency():
    with pytest.raises(OutOfRange):
        AtomicCircleMeasure(((Fraction(1, 3), 1.0), (Fraction(1, 3), 2.0)))
    with pytest.raises(OutOfRange):
        AtomicCircleMeasure(((0.25, 1.0), (0.25 + 1e-13, 1.0)))


@pytest.mark.parametrize("value, parsed", [
    ("7/3", Fraction(1, 3)),
    ("-1/4", Fraction(3, 4)),
    (json.loads("5"), 0.0),  # a JSON integer is a float frequency
    (json.loads("-3"), 0.0),
    (1.25, 0.25),
    (-0.25, 0.75),
    (-1e-20, 0.0),  # 1 - 1e-20 rounds to 1.0, which reduces to 0.0
])
def test_parse_frequency_reduces_mod_one(value, parsed):
    got = parse_frequency(value)
    assert type(got) is type(parsed) and repr(got) == repr(parsed)


@pytest.mark.parametrize("value, in_measure, in_set", [
    (1.25, 0.25, 0.25),
    (-0.25, 0.75, 0.75),
    (-1e-20, 0.0, 0.0),
    (3, 0.0, Fraction(0)),  # a Python int stays exact in a frequency set only
    (-2, 0.0, Fraction(0)),
    (Fraction(7, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)),
])
def test_constructors_reduce_mod_one(value, in_measure, in_set):
    for got, want in ((AtomicCircleMeasure(((value, 1.0),)).atoms[0][0], in_measure),
                      (FiniteFrequencySet((value,)).freqs[0], in_set)):
        assert type(got) is type(want) and repr(got) == repr(want)


def _distinct_oracle(freqs) -> bool:
    """All-pairs distinctness: exact for two rationals, 1e-12 circle distance otherwise."""
    for fi, fj in itertools.combinations(freqs, 2):
        if isinstance(fi, Fraction) and isinstance(fj, Fraction):
            if fi == fj:
                return False
        else:
            d = abs(float(fi) - float(fj))
            if min(d, 1.0 - d) <= FLOAT_FREQ_TOL:
                return False
    return True


_EDGES = [0.0, 1e-13, 5e-13, 1e-12, 2e-12, 0.25, 0.5, 1 - 2e-12, 1 - 1e-12, 1 - 5e-13,
          1 - 1e-16, math.nextafter(1.0, 0.0), 1.0]
_near_edge = st.builds(
    lambda base, k: min(1.0, max(0.0, base + k * 2.5e-13)), st.sampled_from(_EDGES), st.integers(-6, 6)
)
_float_freq = st.one_of(_near_edge, st.floats(0.0, 1.0, exclude_max=True))
_fraction_freq = st.one_of(
    st.builds(Fraction, _near_edge),  # exact value of a float
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda f: f < 1),
    # distinct rationals that share one float value
    st.builds(lambda k: Fraction(10 ** 20 - k, 10 ** 20), st.integers(0, 3) | st.integers(0, 10 ** 9)),
    st.builds(lambda k: Fraction(k, 10 ** 20), st.integers(0, 3) | st.integers(0, 10 ** 9)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_float_freq, _fraction_freq), max_size=10))
def test_check_distinct_matches_all_pairs_oracle(freqs):
    ok = _distinct_oracle(freqs)
    if ok:
        _check_distinct(freqs, "test")
    else:
        with pytest.raises(OutOfRange):
            _check_distinct(freqs, "test")


def test_check_distinct_wraps_and_keeps_rationals_exact():
    with pytest.raises(OutOfRange):
        _check_distinct([0.5, 1 - 5e-13, 0.25, 2e-13], "test")  # across 0 ~ 1
    with pytest.raises(OutOfRange):
        _check_distinct([Fraction(1, 3), 0.9, Fraction(2, 6)], "test")
    # distinct rationals 1e-20 apart stay distinct; a float between them does not
    close = [Fraction(1, 10 ** 20), Fraction(0), Fraction(2, 10 ** 20)]
    _check_distinct(close, "test")
    with pytest.raises(OutOfRange):
        _check_distinct(close + [0.0], "test")
    # both round to the float 1.0; the duplicate must still be seen
    a, b = Fraction(10 ** 20 - 1, 10 ** 20), Fraction(10 ** 20 - 2, 10 ** 20)
    _check_distinct([a, b], "test")
    with pytest.raises(OutOfRange):
        _check_distinct([a, b, a], "test")


def test_golden_min_finds_parabola_vertex():
    assert golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0) == pytest.approx(0.3, abs=1e-7)


# ---------------------------------------------------------------------------
# a_norm_lattice
# ---------------------------------------------------------------------------

def test_a_norm_examples():
    assert a_norm_lattice(SparseTrigPoly(1, {(0,): 1.0})) == 1.0
    assert a_norm_lattice(SparseTrigPoly(1, {(1,): 0.5, (-1,): 0.5})) == pytest.approx(1.0)
    assert a_norm_lattice(SparseTrigPoly(1, {})) == 0.0


def test_a_norm_extract_p_n3():
    # coefficient ell^1 mass of the degree-3 product polynomial: 3s + 3s^3
    from helson_lab.drury import extract_P

    p = extract_P(3, 0.4)
    assert a_norm_lattice(p) == pytest.approx(3 * 0.4 + 3 * 0.4 ** 3, abs=1e-12)
    assert a_norm_lattice(p) == pytest.approx(1.392, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_a_norm_triangle_inequality(terms1, terms2):
    p = SparseTrigPoly(1, {(m,): c for m, c in terms1})
    q = SparseTrigPoly(1, {(m,): c for m, c in terms2})
    total = dict(p.coeffs)
    for m, c in q.coeffs.items():
        total[m] = total.get(m, 0j) + c
    assert a_norm_lattice(SparseTrigPoly(1, total)) <= a_norm_lattice(p) + a_norm_lattice(q) + 1e-12


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=-8, max_value=8, allow_nan=False),
)
def test_a_norm_absolute_homogeneity(terms, a):
    p = SparseTrigPoly(1, {(m,): c for m, c in terms})
    a_times_p = SparseTrigPoly(1, {m: a * c for m, c in p.coeffs.items()})
    assert a_norm_lattice(a_times_p) == pytest.approx(abs(a) * a_norm_lattice(p), abs=1e-12)


# ---------------------------------------------------------------------------
# L1 norms
# ---------------------------------------------------------------------------

def test_l1_norm_trivials():
    assert l1_norm_torus(SparseTrigPoly(1, {(0,): 1.0}), 16) == pytest.approx(1.0, abs=1e-12)
    assert l1_norm_torus(SparseTrigPoly(1, {(1,): 1.0}), 64) == pytest.approx(1.0, abs=1e-12)


def test_l1_norm_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        l1_norm_torus(SparseTrigPoly(5, {(0, 0, 0, 0, 0): 1.0}), 8)


def test_l1_norm_grid_below_antialias_bound():
    with pytest.raises(OutOfRange):
        l1_norm_torus(SparseTrigPoly(1, {(8,): 1.0}), 16)


def test_l1_leq_a_norm_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _random_poly(rng, dim=int(rng.integers(1, 3)), degree=3, n_terms=5)
        if not p.coeffs:
            continue
        assert l1_norm_torus(p, 32) <= a_norm_lattice(p) + 1e-10


def test_l1_monte_carlo_trivials():
    est, se = l1_norm_monte_carlo(SparseTrigPoly(1, {(0,): 1.0}), 2000, seed=3)
    assert est == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    p = SparseTrigPoly(8, {(1, 0, 0, 0, 0, 0, 0, 0): 1.0})
    est, se = l1_norm_monte_carlo(p, 2000, seed=5)
    assert est == pytest.approx(1.0, abs=1e-9)


def test_l1_monte_carlo_matches_quadrature():
    rng = np.random.default_rng(7)
    p = _random_poly(rng, dim=2, degree=2, n_terms=6)
    exact = l1_norm_torus(p, 64)
    est, se = l1_norm_monte_carlo(p, 200_000, seed=9)
    assert abs(est - exact) <= 4 * se + 1e-9


def test_l1_monte_carlo_deterministic():
    p = SparseTrigPoly(2, {(1, 0): 0.3, (0, 2): 0.7j})
    assert l1_norm_monte_carlo(p, 5000, seed=1) == l1_norm_monte_carlo(p, 5000, seed=1)


# ---------------------------------------------------------------------------
# Fourier coefficients through the blocked kernel
# ---------------------------------------------------------------------------

def _mu_hat(mu: AtomicCircleMeasure, g_range: int) -> np.ndarray:
    """mu_hat(g) for g = -g_range..g_range, read off the kernel scan."""
    return _mu_hat_scan(mu.frequencies(), g_range)(mu.weights())


def test_fourier_coeff_examples():
    mu = AtomicCircleMeasure(((0.25, 1.0),))
    assert _mu_hat(mu, 2)[2 + 2] == pytest.approx(-1.0, abs=1e-12)
    mu2 = AtomicCircleMeasure(((0.0, 0.5), (0.5, 0.5)))
    vals = _mu_hat(mu2, 2)  # g = -2..2
    assert vals[2 + 1] == pytest.approx(0.0, abs=1e-12)
    assert vals[2 + 2] == pytest.approx(1.0, abs=1e-12)
    assert vals[2 + 0] == pytest.approx(1.0, abs=1e-12)
    assert _mu_hat(mu2, 0)[0] == pytest.approx(1.0, abs=1e-12)


def test_fourier_coeff_conjugate_symmetry():
    # real weights on a lambda -> 1 - lambda symmetric atom set; g = -7..7
    # spans 15 = 4 blocks of 4 minus one padded slot
    rng = np.random.default_rng(2)
    freqs = [0.1, 0.35]
    atoms = []
    for f in freqs:
        w = float(rng.normal())
        atoms.append((f, w))
        atoms.append((1.0 - f, w))
    mu = AtomicCircleMeasure(tuple(atoms))
    vals = _mu_hat(mu, 7)
    assert np.max(np.abs(vals[::-1] - np.conj(vals))) <= 1e-12
    gs = np.arange(-7, 8)
    direct = np.exp(2j * np.pi * np.outer(gs, mu.frequencies())) @ mu.weights()
    assert np.max(np.abs(vals - direct)) <= 1e-12


@pytest.mark.parametrize("g_range", [0, 1, 100, 10_000])
def test_stacked_scan_rows_equal_one_row_scans(g_range):
    # the Helson line search scans its weights and direction as one [w, d]
    # stack: every row of a stacked scan must be the lone scan of its weights
    # bit for bit, at any stack height
    rng = np.random.default_rng(g_range)
    for k in range(1, 9):
        scan = _mu_hat_scan(rng.random(k), g_range)
        W = rng.normal(size=(6, k)) + 1j * rng.normal(size=(6, k))
        for height in (2, 6):
            stacked = scan(W[:height])
            assert stacked.shape == (height, 2 * g_range + 1)
            for w, row in zip(W, stacked):
                assert np.array_equal(scan(w), row)


# ---------------------------------------------------------------------------
# dense FFT oracle
# ---------------------------------------------------------------------------

def test_oracle_single_term():
    dense = dense_fft_oracle(SparseTrigPoly(1, {(1,): 0.7}), 8)
    assert dense[1] == pytest.approx(0.7, abs=1e-12)
    others = [abs(dense[i]) for i in range(8) if i != 1]
    assert max(others) < 1e-12


def test_oracle_matches_sparse_random():
    rng = np.random.default_rng(13)
    for trial in range(10):
        dim = int(rng.integers(1, 4))
        p = _random_poly(rng, dim=dim, degree=3, n_terms=6)
        dense = dense_fft_oracle(p, 16)
        for m, c in p.coeffs.items():
            assert dense[tuple(x % 16 for x in m)] == pytest.approx(c, abs=1e-10)
        assert np.sum(np.abs(dense)) == pytest.approx(
            sum(abs(c) for c in p.coeffs.values()), abs=1e-8
        )


def test_oracle_convolution():
    rng = np.random.default_rng(17)
    p = _random_poly(rng, dim=1, degree=4, n_terms=4)
    q = _random_poly(rng, dim=1, degree=4, n_terms=4)
    conv = {}
    for (m1,), c1 in p.coeffs.items():
        for (m2,), c2 in q.coeffs.items():
            conv[(m1 + m2,)] = conv.get((m1 + m2,), 0j) + c1 * c2
    prod = SparseTrigPoly(1, conv)
    dense = dense_fft_oracle(prod, 32)
    for m, c in prod.coeffs.items():
        assert dense[tuple(x % 32 for x in m)] == pytest.approx(c, abs=1e-10)


def test_oracle_guards():
    with pytest.raises(DimensionTooLarge):
        dense_fft_oracle(SparseTrigPoly(4, {(0, 0, 0, 0): 1.0}), 8)
    with pytest.raises(OutOfRange):
        dense_fft_oracle(SparseTrigPoly(1, {(5,): 1.0}), 8)


# ---------------------------------------------------------------------------
# independence_check
# ---------------------------------------------------------------------------

def test_independence_single_rational():
    K = FiniteFrequencySet((Fraction(1, 2),))
    assert independence_check(K, 5).status == "independent"


def test_independence_dependent_witness():
    K = FiniteFrequencySet((Fraction(1, 3), Fraction(2, 3)))
    verdict = independence_check(K, 3)
    assert verdict.status == "dependent"
    assert verdict.witness == (1, 1)
    # witness satisfies the violated implication when re-evaluated
    total = sum(n * f for n, f in zip(verdict.witness, K.freqs))
    assert total.denominator == 1
    assert any((n * f).denominator != 1 for n, f in zip(verdict.witness, K.freqs))


def test_independence_floats_inconclusive():
    K = FiniteFrequencySet((np.sqrt(2) - 1, np.sqrt(3) - 1))
    verdict = independence_check(K, 10)
    assert verdict.status == "inconclusive"
    assert verdict.witness is None


def test_independence_float_near_dependence_witness():
    K = FiniteFrequencySet((1 / 3, 2 / 3))
    verdict = independence_check(K, 3)
    assert verdict.status == "inconclusive"
    assert verdict.witness is not None


def test_independence_deterministic():
    K = FiniteFrequencySet((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    v1 = independence_check(K, 4)
    v2 = independence_check(K, 4)
    assert v1 == v2


def _independence_oracle(K: FiniteFrequencySet, bound: int) -> IndependenceVerdict:
    """itertools enumeration of [-bound, bound]^k with Python-int arithmetic.

    Both paths report the least sum |n_j| witness, then the least tuple(-n)
    among canonical signs; floats test each vector's unreduced sums within 1e-9.
    """
    vectors = itertools.product(range(-bound, bound + 1), repeat=len(K))
    witnesses = set()
    if K.all_rational():
        L = math.lcm(*(f.denominator for f in K.freqs))
        a = [f.numerator * (L // f.denominator) for f in K.freqs]
        for vec in vectors:
            terms = [n * aj for n, aj in zip(vec, a)]
            if sum(terms) % L == 0 and any(t % L != 0 for t in terms):
                witnesses.add(_canonical_sign(vec))
        found, none = "dependent", "independent"
    else:
        lam = K.values()
        for vec in vectors:
            terms = np.array(vec, dtype=float) * lam
            total = terms.sum()
            if abs(total - round(total)) <= 1e-9 and np.any(np.abs(terms - np.round(terms)) > 1e-9):
                witnesses.add(_canonical_sign(vec))
        found = none = "inconclusive"
    if witnesses:
        best = min(witnesses, key=lambda v: (sum(map(abs, v)), tuple(-x for x in v)))
        return IndependenceVerdict(found, best)
    return IndependenceVerdict(none)


MERSENNE_61 = 2 ** 61 - 1  # lcm * |K| reaches 2^62 in most rows below: the exact Python-int path


@pytest.mark.parametrize(
    "freqs,bound",
    [
        ((Fraction(1, 3), Fraction(2, 3)), 3),
        ((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), 4),
        ((Fraction(1, 5), Fraction(2, 7), Fraction(3, 11)), 6),
        ((Fraction(1, 4), Fraction(3, 8), Fraction(5, 12), Fraction(7, 9)), 3),
        ((Fraction(1, MERSENNE_61), Fraction(MERSENNE_61 - 1, MERSENNE_61)), 3),
        ((Fraction(1, MERSENNE_61), Fraction(1, 3)), 4),
        ((Fraction(5, MERSENNE_61), Fraction(1, 2), Fraction(7, MERSENNE_61)), 3),
        ((Fraction(1, 3), Fraction(MERSENNE_61 - 1, MERSENNE_61)), 3),  # n_j a_j past 2^63
        ((Fraction(1, MERSENNE_61), Fraction(MERSENNE_61 - 1, MERSENNE_61), Fraction(1, 2 ** 31 - 1)), 2),
        ((1 / 3, 2 / 3), 3),
        ((np.sqrt(2) - 1, np.sqrt(3) - 1), 10),
        ((0.25, Fraction(1, 3), 0.125), 4),
        # 0.3 + (0.7 - 5e-10) sits just below 1: the witness (0, 0, 1, 1, 0) joins
        # its halves only across the wrap at 0, and its negation is not canonical
        ((math.sqrt(2) - 1, math.sqrt(3) - 1, 0.3, 0.7 - 5e-10, 0.7), 1),
    ],
)
def test_independence_matches_itertools_oracle(freqs, bound):
    K = FiniteFrequencySet(freqs)
    assert independence_check(K, bound) == _independence_oracle(K, bound)


def test_independence_overflow_path_is_exact():
    K = FiniteFrequencySet((Fraction(1, MERSENNE_61), Fraction(MERSENNE_61 - 1, MERSENNE_61)))
    assert independence_check(K, 3) == IndependenceVerdict("dependent", (1, 1))


@pytest.mark.parametrize("k, bound", [(13, 1), (2, 21), (2, -1)])
def test_independence_envelope(k, bound):
    K = FiniteFrequencySet(tuple(Fraction(1, p) for p in range(2, 2 + k)))
    with pytest.raises(OutOfRange):
        independence_check(K, bound)


def test_independence_budget(monkeypatch):
    # |K| = 7 at bound 20: the larger half would hold 41^4 = 2.8M entries; refused before any table
    def enumerate_tables(tables):
        raise AssertionError("a half table was built")

    monkeypatch.setattr(torus, "_grid_sums", enumerate_tables)
    K = FiniteFrequencySet(tuple(Fraction(1, p) for p in (3, 5, 7, 11, 13, 17, 19)))
    with pytest.raises(BudgetExceeded):
        independence_check(K, 20)


_rationals_up_to_12 = st.integers(1, 12).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_rationals_up_to_12, min_size=1, max_size=6, unique=True), st.integers(1, 4))
def test_independence_matches_oracle_on_random_rationals(freqs, bound):
    K = FiniteFrequencySet(tuple(freqs))
    assert independence_check(K, bound) == _independence_oracle(K, bound)


def test_independence_largest_half_of_the_old_budget():
    # |K| = 5 at bound 19 (90.2M vectors, admitted by the old 1e8 budget): its
    # larger half of 39^3 = 59,319 entries sits under the 1e6 cap
    K = FiniteFrequencySet(tuple(Fraction(1, p) for p in (3, 5, 7, 11, 13)))
    assert independence_check(K, 19) == IndependenceVerdict("independent")
    K = FiniteFrequencySet(tuple(map(Fraction, ("1/3", "1/5", "2/15", "1/19", "4/23"))))
    assert independence_check(K, 19) == IndependenceVerdict("dependent", (1, -1, -1, 0, 0))


def test_independence_many_trivial_matches():
    # lcm 30030 over 21^3 entries per half: many residues match, each match
    # of two trivial entries is skipped, and every level is visited
    K = FiniteFrequencySet(tuple(Fraction(1, p) for p in (2, 3, 5, 7, 11, 13)))
    assert independence_check(K, 10) == IndependenceVerdict("independent")


def test_independence_corner_past_old_budget():
    # the corner has 21^6 = 85.8M vectors; 1/2 .. 1/19 at bound 6 has 13^8 = 816M, past the old 1e8 budget
    K = FiniteFrequencySet(tuple(map(Fraction, ("1/3", "1/5", "2/15", "1/19", "4/23", "6/29"))))
    assert independence_check(K, 10) == IndependenceVerdict("dependent", (1, -1, -1, 0, 0, 0))
    K = FiniteFrequencySet(tuple(Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19)))
    assert independence_check(K, 6) == IndependenceVerdict("independent")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_poly_json_round_trip():
    p = SparseTrigPoly(2, {(1, -2): 0.5 + 0.25j, (0, 0): -1.0})
    q = SparseTrigPoly.from_json_dict(p.to_json_dict())
    assert q == p


def test_measure_json_round_trip():
    mu = AtomicCircleMeasure(((Fraction(1, 3), 1.0 + 2.0j), (0.125, -0.5)))
    d = mu.to_json_dict()
    freq_reprs = [a["freq"] for a in d["atoms"]]
    assert "1/3" in freq_reprs
    back = AtomicCircleMeasure.from_json_dict(d)
    assert back.total_variation() == pytest.approx(mu.total_variation())
    assert any(isinstance(f, Fraction) for f, _ in back.atoms)


def test_frequency_set_json_round_trip():
    K = FiniteFrequencySet((Fraction(1, 2), 0.30000000000000004))
    back = FiniteFrequencySet.from_json_dict(K.to_json_dict())
    assert np.allclose(back.values(), K.values())
    assert back.freqs[0] == Fraction(1, 2)
