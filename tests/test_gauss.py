"""Synthesis, spectral estimation, and moment diagnostics for atomic-spectrum sequences."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helson_lab import gauss as G
from helson_lab import torus
from helson_lab.errors import OutOfRange
from helson_lab.torus import AtomicCircleMeasure

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
LAM8 = sorted((k * ALPHA) % 1.0 for k in range(1, 9))
SPEC8 = AtomicCircleMeasure.from_pairs([(l, 1.0 / 8) for l in LAM8])


@pytest.fixture(scope="module")
def xg_200k():
    return G.simulate(G.GaussianModel(spectrum=SPEC8, T_len=200_000, seed=13))


@pytest.fixture(scope="module")
def xr_200k():
    return G.simulate(G.RandomPhaseModel(spectrum=SPEC8, T_len=200_000, seed=13))


@pytest.fixture(scope="module")
def z_iid():
    rng = np.random.default_rng(11)
    n = 400_000
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def sigma_hat(g, pairs):
    return sum(w * np.exp(2j * np.pi * g * l) for l, w in pairs)


# -- models and synthesis ---------------------------------------------------

def test_simulate_matches_direct_synthesis():
    lam = [0.123, 0.456, 0.789]
    spec = AtomicCircleMeasure.from_pairs([(l, 0.5) for l in lam])
    for cls in (G.GaussianModel, G.RandomPhaseModel):
        model = cls(spectrum=spec, T_len=200, seed=9)
        xi = model.unit_amplitudes(3)
        ns = np.arange(200)
        direct = sum(
            math.sqrt(0.5) * xi[j] * np.exp(2j * np.pi * ns * lam[j]) for j in range(3)
        )
        assert np.max(np.abs(G.simulate(model) - direct)) < 1e-9


def _direct_synthesis(lam, amps, T_len):
    """X_n = sum_j amps_j e^{2 pi i n lam_j}: one complex exp per (n, atom)."""
    out = np.empty(T_len, dtype=complex)
    rows = max(1, (1 << 22) // max(1, len(lam)))
    for n0 in range(0, T_len, rows):
        ns = np.arange(n0, min(n0 + rows, T_len), dtype=float)
        out[n0:n0 + ns.size] = np.exp(2j * np.pi * (np.outer(ns, lam) % 1.0)) @ amps
    return out


def _direct_amplitude(seq, lam):
    """(1/T) sum_n seq_n e^{-2 pi i n lam}: one complex exp per sample."""
    ns = np.arange(seq.size, dtype=float)
    return complex(np.mean(seq * np.exp(-2j * np.pi * ((ns * lam) % 1.0))))


_FREQ = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1e-6),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
)


@st.composite
def _kernel_case(draw):
    """(lam, amps, T_len): frequencies near 0 and 1, repeats, complex amplitudes."""
    A = draw(st.sampled_from([1, 2, 7, 64]))
    B = draw(st.integers(2, 60))
    T_len = draw(st.sampled_from([1, 2, 3, B * B - 1, B * B, B * B + 1, 200_000]))
    pool = draw(st.lists(_FREQ, min_size=1, max_size=A))
    lam = np.array(draw(st.lists(st.sampled_from(pool), min_size=A, max_size=A)))
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * A, max_size=2 * A))
    amps = np.array(parts[:A]) + 1j * np.array(parts[A:])
    return lam, amps, T_len


# the largest case every run: 64 atoms (some repeated, some near 0 and 1), T = 2e5
_LAM64 = np.concatenate([[0.0, 1e-9, 1.0 - 1e-9, 1.0 - 1e-9], np.random.default_rng(5).random(60)])
_AMPS64 = np.exp(1j * np.arange(64.0)) * np.linspace(0.5, 1.5, 64)
_BIG_CASE = (_LAM64, _AMPS64, 200_000)


@settings(max_examples=30, deadline=None)
@given(_kernel_case())
@example(_BIG_CASE)
def test_blocked_synthesis_matches_direct_sum(case):
    lam, amps, T_len = case
    ref = _direct_synthesis(lam, amps, T_len)
    chunks = list(torus._block_phasors(lam, T_len))
    got = torus._synthesize(iter(chunks), amps, T_len)
    assert got.shape == (T_len,)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    # a list of chunks kept for reuse gives the same bytes, every time
    assert np.array_equal(torus._synthesize(chunks, amps, T_len), got)
    assert np.array_equal(torus._synthesize(chunks, amps, T_len), got)


@settings(max_examples=30, deadline=None)
@given(_kernel_case(), st.integers(0, 2 ** 32 - 1))
@example(_BIG_CASE, 0)
def test_blocked_analysis_matches_direct_sum(case, seed):
    lam, _, T_len = case
    rng = np.random.default_rng(seed)
    seq = rng.standard_normal(T_len) + 1j * rng.standard_normal(T_len)
    ref = np.array([_direct_amplitude(seq, l) for l in lam])
    got = torus._amplitudes_at(seq, lam)
    tol = 1e-9 * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= tol


def test_atom_chunking_matches_one_block(monkeypatch):
    rng = np.random.default_rng(17)
    lam = rng.random(7)
    amps = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    T_len = 5_000  # B = 71
    seq = torus._synthesize(torus._block_phasors(lam, T_len), amps, T_len)
    ana = torus._amplitudes_at(seq, lam)
    monkeypatch.setattr(torus, "_CHUNK_ELEMS", 3 * 71)  # chunks of 3, 3 and 1 atoms
    assert [sl for sl, _, _ in torus._block_phasors(lam, T_len)] == [
        slice(0, 3), slice(3, 6), slice(6, 9)
    ]
    chunked = torus._synthesize(torus._block_phasors(lam, T_len), amps, T_len)
    assert np.max(np.abs(chunked - seq)) <= 1e-12 * np.max(np.abs(seq))
    assert np.max(np.abs(torus._amplitudes_at(seq, lam) - ana)) <= 1e-12 * np.max(np.abs(ana))


# -- one phasor table per run ----------------------------------------------

def _spectrum(seed, n_atoms):
    rng = np.random.default_rng(seed)
    return AtomicCircleMeasure.from_pairs(zip(rng.random(n_atoms), rng.uniform(0.5, 1.5, n_atoms)))


@st.composite
def _sharing_case(draw):
    """(spectrum, model class, T_len, thresholds, _CHUNK_ELEMS): one-block and long runs, uneven and empty windows."""
    spectrum = _spectrum(draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 64)))
    cls = draw(st.sampled_from([G.GaussianModel, G.RandomPhaseModel]))
    B = draw(st.integers(2, 60))
    T_len = draw(st.sampled_from([1, 2, 3, B * B - 1, B * B + 1, 200_000]))
    thresholds = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True)))
    # 1 puts every atom in a chunk of its own: no table, each sum builds its own
    chunk_elems = draw(st.sampled_from([torus._CHUNK_ELEMS, 1]))
    return spectrum, cls, T_len, thresholds, chunk_elems


@settings(max_examples=25, deadline=None)
@given(_sharing_case())
@example((_spectrum(0, 64), G.GaussianModel, 200_000, [0.0, 0.3, 0.31, 1.0], torus._CHUNK_ELEMS))
@example((_spectrum(1, 64), G.RandomPhaseModel, 200_000, [0.0, 0.5, 1.0], 1))
def test_shared_tables_match_fresh_builds(case):
    spectrum, cls, T_len, thresholds, chunk_elems = case
    with mock.patch.object(torus, "_CHUNK_ELEMS", chunk_elems):
        model = cls(spectrum=spectrum, T_len=T_len, seed=3)
        lam, w = G._validated_spectrum(spectrum)
        amps = np.sqrt(w) * model.unit_amplitudes(lam.size)

        def fresh(m):
            return torus._synthesize(torus._block_phasors(lam[m], T_len), amps[m], T_len)

        seq = G.simulate(model)
        table = model._atoms[2]
        assert (table is None) == (chunk_elems == 1 and lam.size > 1)
        assert np.array_equal(seq, fresh(slice(None)))
        windows = G.spectral_process(model, thresholds)
        for a, b, got in zip(thresholds, thresholds[1:], windows):
            m = (lam >= a) & (lam < b)
            assert np.array_equal(got, fresh(m) if m.any() else np.zeros(T_len, dtype=complex))
        assert np.array_equal(torus._amplitudes_at(seq, lam, table), torus._amplitudes_at(seq, lam))
        shared = G.gaussianity_test(seq, 3, freqs=list(lam), model=model).to_json_dict()
        assert json.dumps(shared) == json.dumps(G.gaussianity_test(seq, 3, freqs=list(lam)).to_json_dict())


def test_gaussianity_reads_the_table_only_where_it_fits():
    model = G.GaussianModel(spectrum=_spectrum(2, 5), T_len=1_000, seed=1)
    seq = G.simulate(model)
    lam = list(model._atoms[0])
    with mock.patch.object(G, "_amplitudes_at", wraps=G._amplitudes_at) as spy:
        G.gaussianity_test(seq, 2, freqs=lam, model=model)
        G.gaussianity_test(seq[:999], 2, freqs=lam, model=model)
        G.gaussianity_test(seq, 2, freqs=lam[:4], model=model)
    assert [c.args[2] is model._atoms[2] for c in spy.call_args_list] == [True, False, False]


def test_gaussianity_reduces_tiny_negative_frequency_to_zero():
    # float(-1e-20) % 1.0 rounds to 1.0; reduced to 0.0 it is the model's
    # first atom, so the test reads the model's table
    model = G.GaussianModel(spectrum=AtomicCircleMeasure.from_pairs([(0.0, 0.5), (0.5, 0.5)]), T_len=1_000, seed=1)
    seq = G.simulate(model)
    with mock.patch.object(G, "_amplitudes_at", wraps=G._amplitudes_at) as spy:
        G.gaussianity_test(seq, 2, freqs=[-1e-20, 0.5], model=model)
    (_, lams, table), _ = spy.call_args
    assert lams.tolist() == [0.0, 0.5] and table is model._atoms[2]


def test_simulate_deterministic_in_seed():
    m = G.GaussianModel(spectrum=SPEC8, T_len=5_000, seed=21)
    assert np.array_equal(G.simulate(m), G.simulate(m))
    other = G.GaussianModel(spectrum=SPEC8, T_len=5_000, seed=22)
    assert not np.allclose(G.simulate(m), G.simulate(other))


def test_single_atom_modulus_constant():
    spec = AtomicCircleMeasure.from_pairs([(0.3, 1.0)])
    xr = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=3_000, seed=1))
    assert np.max(np.abs(np.abs(xr) - 1.0)) < 1e-12
    xg = G.simulate(G.GaussianModel(spectrum=spec, T_len=3_000, seed=1))
    assert np.ptp(np.abs(xg)) < 1e-12


def test_mean_tends_to_zero():
    for cls in (G.GaussianModel, G.RandomPhaseModel):
        x = G.simulate(cls(spectrum=SPEC8, T_len=100_000, seed=3))
        assert abs(np.mean(x)) <= 3.0 / math.sqrt(100_000)


def test_gaussian_variance_matches_total_mass_many_atoms():
    # atom-average scatter needs many atoms before 5/sqrt(T) is realistic
    lam = np.sort(np.random.default_rng(3).random(2000))
    spec = AtomicCircleMeasure.from_pairs([(float(l), 1.0 / 2000) for l in lam])
    x = G.simulate(G.GaussianModel(spectrum=spec, T_len=10_000, seed=2))
    assert abs(np.mean(np.abs(x) ** 2) - 1.0) <= 5.0 / math.sqrt(10_000)


def test_model_guards():
    with pytest.raises(OutOfRange):
        G.GaussianModel(spectrum=SPEC8, T_len=10 ** 7 + 1, seed=0)
    with pytest.raises(OutOfRange):
        G.GaussianModel(spectrum=SPEC8, T_len=0, seed=0)
    signed = AtomicCircleMeasure.from_pairs([(0.1, 1.0), (0.2, -0.5)])
    with pytest.raises(OutOfRange):
        G.GaussianModel(spectrum=signed, T_len=100, seed=0)
    cplx = AtomicCircleMeasure.from_pairs([(0.1, 1.0 + 0.5j)])
    with pytest.raises(OutOfRange):
        G.RandomPhaseModel(spectrum=cplx, T_len=100, seed=0)
    big = AtomicCircleMeasure.from_pairs(
        [(i / 20001.0, 1.0) for i in range(1, 10_002)]
    )
    with pytest.raises(OutOfRange):
        G.GaussianModel(spectrum=big, T_len=100, seed=0)


def test_model_refuses_non_integer_length():
    for cls in (G.GaussianModel, G.RandomPhaseModel):
        for bad in (1000.0, "1000", None):
            with pytest.raises(OutOfRange):
                cls(spectrum=SPEC8, T_len=bad, seed=1)
        x = G.simulate(cls(spectrum=SPEC8, T_len=np.int64(1000), seed=1))
        assert np.array_equal(x, G.simulate(cls(spectrum=SPEC8, T_len=1000, seed=1)))


# -- spectral estimation ----------------------------------------------------

def test_spectral_single_atom_exact_for_random_phase():
    spec = AtomicCircleMeasure.from_pairs([(0.3, 1.0)])
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=100_000, seed=5))
    pts = G.estimate_spectral(x, 2)
    assert abs(pts[0].value - 1.0) < 1e-10
    assert abs(pts[1].value - np.exp(2j * np.pi * 0.3)) < 3.0 / math.sqrt(100_000)


def test_spectral_two_close_atoms():
    pairs = [(0.3, 0.5), (0.31, 0.5)]
    spec = AtomicCircleMeasure.from_pairs(pairs)
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=200_000, seed=8))
    for p in G.estimate_spectral(x, 50):
        assert abs(p.value - sigma_hat(p.g, pairs)) <= 4.0 * p.std_err


def test_spectral_recovery_gaussian_8_atoms(xg_200k):
    pairs = [(l, 1.0 / 8) for l in LAM8]
    for p in G.estimate_spectral(xg_200k, 50):
        assert abs(p.value - sigma_hat(p.g, pairs)) <= 4.0 * p.std_err


def test_spectral_recovery_random_phase_8_atoms(xr_200k):
    pairs = [(l, 1.0 / 8) for l in LAM8]
    for p in G.estimate_spectral(xr_200k, 50):
        assert abs(p.value - sigma_hat(p.g, pairs)) <= 4.0 * p.std_err


def test_spectral_deterministic_and_guarded(xr_200k):
    a = G.estimate_spectral(xr_200k[:10_000], 5)
    b = G.estimate_spectral(xr_200k[:10_000], 5)
    assert all(p.value == q.value and p.std_err == q.std_err for p, q in zip(a, b))
    with pytest.raises(OutOfRange):
        G.estimate_spectral(xr_200k[:100], 11)


# the per-lag path estimate_spectral and increment_dependence_test replaced:
# one product array per lag, read once per statistic, and complex FFTs for
# the real cross-correlation; slow, kept only as the oracle

def _batch_se_oracle(values):
    T = values.size
    B = min(32, T)
    edge = (T // B) * B
    if edge == 0 or B < 2:
        return 0.0
    bm = values[:edge].reshape(B, -1).mean(axis=1)
    return float(np.std(bm, ddof=1) / math.sqrt(B))


def _lag_products(seq, g):
    if g == 0:
        return (seq * np.conj(seq)).astype(complex)
    return seq[g:] * np.conj(seq[:-g])


def _spectral_oracle(seq, g_max):
    T = seq.size
    rng = np.random.default_rng(101)
    lo = g_max + 1
    hi = max(lo + 1, T // 10)
    probes = [int(gp) for gp in np.unique(rng.integers(lo, hi, size=24)) if gp < T]
    probe_sq = [abs(np.mean(_lag_products(seq, gp))) ** 2 for gp in probes]
    floor_sq = 0.5 * float(np.mean(probe_sq)) if probe_sq else 0.0
    out = []
    for g in range(g_max + 1):
        prods = _lag_products(seq, g)
        se_re = _batch_se_oracle(prods.real)
        se_im = _batch_se_oracle(prods.imag)
        out.append((complex(np.mean(prods)), math.sqrt(se_re ** 2 + se_im ** 2 + floor_sq)))
    return out


def _increment_oracle(da, db, n_boot, seed):
    """(stat_cross, null_q99, orthogonality_z) of increment_dependence_test."""
    A0 = np.abs(da) ** 2 - np.mean(np.abs(da) ** 2)
    B0 = np.abs(db) ** 2 - np.mean(np.abs(db) ** 2)
    T = A0.size
    scale = float(np.sqrt(np.mean(A0 ** 2))) * float(np.sqrt(np.mean(B0 ** 2)))
    cross = np.fft.ifft(np.fft.fft(A0) * np.conj(np.fft.fft(B0))).real / T
    shifts = np.random.default_rng(seed).integers(1, T, size=n_boot)
    q99 = float(np.quantile(np.abs(cross[shifts]) / scale, 0.99))
    prods = da * np.conj(db)
    se_o = math.sqrt(_batch_se_oracle(prods.real) ** 2 + _batch_se_oracle(prods.imag) ** 2)
    return float(np.mean(A0 * B0) / scale), q99, float(abs(np.mean(prods)) / se_o)


def _complex_noise(seed, T, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(T) + 1j * rng.standard_normal(T))


@st.composite
def _spectral_case(draw):
    """(seq, g_max): short tails (T % 32 != 0), lags leaving < 32 terms, g_max = 0."""
    T = draw(st.one_of(st.integers(1, 40), st.integers(41, 5_000)))
    g_max = draw(st.integers(0, T // 10))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    seq = _complex_noise(draw(st.integers(0, 2 ** 32 - 1)), T, scale)
    return seq, g_max


@settings(max_examples=60, deadline=None)
@given(_spectral_case())
@example((_complex_noise(0, 1), 0))
@example((_complex_noise(1, 35), 3))
@example((_complex_noise(2, 4_001), 0))
@example((_complex_noise(3, 4_096), 409))
@example((_complex_noise(4, G._LAG_CHUNK - 1), (G._LAG_CHUNK - 1) // 10))
@example((_complex_noise(5, G._LAG_CHUNK + 1), (G._LAG_CHUNK + 1) // 10))
def test_spectral_matches_per_lag_oracle(case):
    seq, g_max = case
    m2 = float(np.mean(np.abs(seq) ** 2))
    got = G.estimate_spectral(seq, g_max)
    assert [p.g for p in got] == list(range(g_max + 1))
    for p, (value, se) in zip(got, _spectral_oracle(seq, g_max)):
        assert abs(p.value - value) <= 1e-12 * m2
        assert abs(p.std_err - se) <= 1e-10 * se
    assert got[0].value.imag == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5_000), st.integers(0, 2 ** 32 - 1))
@example(33, 0)
def test_increment_dependence_matches_complex_fft_oracle(T, seed):
    da, db = _complex_noise(seed, T), _complex_noise(seed + 1, T, 0.5)
    rep = G.increment_dependence_test((da, db), 0, 1, seed=seed)
    stat, q99, z_o = _increment_oracle(da, db, 1000, seed)
    assert rep.n_boot == 1000
    assert abs(rep.stat_cross - stat) <= 1e-12
    assert abs(rep.null_q99 - q99) <= 1e-12
    assert abs(rep.orthogonality_z - z_o) <= 1e-10 * max(1.0, z_o)


def _block_se(block_means):
    """One mean's standard error from its block means: the per-lag call _block_ses groups; kept as its oracle."""
    B = block_means.size
    return float(np.std(block_means, ddof=1) / math.sqrt(B)) if B >= 2 else 0.0


@pytest.mark.parametrize("T", [1, 2, 33, 41, 200_000])
def test_grouped_block_ses_match_per_lag(T):
    # lags with T - g < 32 terms have fewer blocks, so the families mix sizes
    seq = _complex_noise(T, T)
    _, lag_means, _ = G._lag_sums(seq, seq, min(T // 10, 50), np.zeros(0, dtype=int))
    rng = np.random.default_rng(T)
    sizes = np.minimum(G._BATCHES, T - np.arange(T // 10 + 1))
    drawn = [rng.standard_normal(B) * 10.0 ** rng.integers(-3, 4) + 1j * rng.standard_normal(B) for B in sizes]
    for means in (lag_means, drawn):
        for part in (np.real, np.imag):
            rows = [part(bm) for bm in means]
            assert G._block_ses(rows) == [_block_se(r) for r in rows]


def _full_length_powers(seq, k_max):
    """(|x|^{2k}, its mean) for k = 1..k_max: full-length powers by repeated multiplication of |x|^2,
    and each mean as the sum of its B block sums and its tail over T."""
    a2 = np.abs(seq) ** 2
    T = a2.size
    B = min(32, T)
    edge = (T // B) * B
    power = np.ones_like(a2)
    for _ in range(k_max):
        power = power * a2
        sums = np.append(power[:edge].reshape(B, -1).sum(axis=1), power[edge:].sum())
        yield power, float(np.sum(sums) / T)


def _moment_oracle(seq, P):
    """moment_report's standard errors and log-convexity count, one np.std per p and per second difference."""
    T = seq.size
    B = min(32, T)
    ses, log_mp, batch_log = [], [], []
    for p, (ap, mp) in zip(range(2, P + 1, 2), _full_length_powers(seq, P // 2)):
        norm = mp ** (1.0 / p)
        ses.append(_batch_se_oracle(ap) * norm / (p * mp) if mp > 0 else 0.0)
        log_mp.append(math.log(max(mp, 1e-300)))
        batch_log.append(np.log(np.maximum(ap[:(T // B) * B].reshape(B, -1).mean(axis=1), 1e-300)))
    violations = 0
    for i in range(1, len(ses) - 1):
        d2 = log_mp[i - 1] - 2.0 * log_mp[i] + log_mp[i + 1]
        tol = 3.0 * _block_se(batch_log[i - 1] - 2.0 * batch_log[i] + batch_log[i + 1])
        violations += d2 < -(tol + 1e-9)
    return tuple(ses), violations


# T = 31 has fewer samples than batch blocks; T = 1,000,003 a tail past the last block
@pytest.mark.parametrize("T, P", [(1, 16), (2, 8), (31, 16), (33, 16), (41, 4), (200_000, 16), (1_000_003, 16)])
def test_moment_errors_match_per_p_oracle(T, P):
    seq = _complex_noise(T + 1, T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-T stability warning
        rep = G.moment_report(seq, P)
    assert (rep.lp_std_errs, rep.logconvex_violations) == _moment_oracle(seq, P)


def _full_array_means(seq, k_max):
    """_power_block_sums' means as np.mean over full-length powers |x|^{2k}, the summation it replaced."""
    a = np.abs(seq)
    T = a.size
    B = min(32, T)
    powers = [a ** (2 * k) for k in range(1, k_max + 1)]
    return (np.array([np.mean(ap) for ap in powers]),
            np.array([ap[:(T // B) * B].reshape(B, -1).mean(axis=1) for ap in powers]))


@pytest.mark.parametrize("T", [1, 2, 33, 41, 200_000])
def test_block_sums_move_moments_only_at_rounding_level(T):
    seq = _complex_noise(T + 1, T)
    means, _ = G._power_block_sums(seq, 8)
    full, _ = _full_array_means(seq, 8)
    assert np.all(np.abs(means - full) <= 1e-13 * full)

    def verdicts():
        mom = G.moment_report(seq, 16)
        return mom.logconvex_violations, mom.monotone_violations, G.gaussianity_test(seq, 3, [0.25]).gaussian_consistent

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-T stability warning
        got = verdicts()
        with mock.patch.object(G, "_power_block_sums", _full_array_means):
            assert verdicts() == got


# -- threshold family and increments ----------------------------------------

def test_process_full_threshold_reproduces_simulate():
    for cls in (G.GaussianModel, G.RandomPhaseModel):
        model = cls(spectrum=SPEC8, T_len=10_000, seed=4)
        low, high = G.spectral_process(model, [0.0, LAM8[3] + 1e-9, 1.0])
        assert np.allclose(low + high, G.simulate(model), atol=1e-9)
        # the window below LAM8[3] holds the four lowest atoms and their draws
        amps = math.sqrt(1.0 / 8) * model.unit_amplitudes(8)[:4]
        assert np.allclose(low, _direct_synthesis(np.array(LAM8[:4]), amps, 10_000), atol=1e-9)
        # windows are [a, b): a threshold at the lowest atom keeps it, as gauss-sim's split does
        assert np.array_equal(G.spectral_process(model, [LAM8[0], LAM8[3] + 1e-9])[0], low)
        # a window without atoms is the zero sequence
        (empty,) = G.spectral_process(model, [LAM8[-1] + 1e-9, 1.0])
        assert empty.shape == (10_000,) and not np.any(empty)


NONRES = np.sort(np.random.default_rng(42).random(6))
SPEC_NONRES = AtomicCircleMeasure.from_pairs([(float(l), 1.0 / 6) for l in NONRES])
TH_NONRES = [float(NONRES[2]) + 1e-9, float(NONRES[4]) + 1e-9, 1.0]


def test_increments_uncorrelated_and_not_flagged_dependent():
    # disjoint windows draw disjoint amplitudes in both model classes
    for cls in (G.GaussianModel, G.RandomPhaseModel):
        inc = G.spectral_process(cls(spectrum=SPEC_NONRES, T_len=100_000, seed=5), TH_NONRES)
        rep = G.increment_dependence_test(inc, 0, 1, seed=3)
        assert rep.orthogonality_z <= 4.0
        assert not rep.dependent
        assert rep.null_q99 >= 0.0


def test_flatness_pins_random_phase_at_ceiling():
    # equal-weight 2-atom window: var/mean^2 of |inc|^2 is exactly 1/2 for
    # unit moduli, Gaussian draws scatter it below
    inc_r = G.spectral_process(
        G.RandomPhaseModel(spectrum=SPEC_NONRES, T_len=100_000, seed=5), TH_NONRES
    )
    rep_r = G.increment_dependence_test(inc_r, 0, 1, seed=3)
    assert abs(rep_r.flatness[0] - 0.5) < 1e-3
    inc_g = G.spectral_process(
        G.GaussianModel(spectrum=SPEC_NONRES, T_len=100_000, seed=5), TH_NONRES
    )
    rep_g = G.increment_dependence_test(inc_g, 0, 1, seed=3)
    assert rep_g.flatness[0] < 0.47


def test_process_guards():
    model = G.GaussianModel(spectrum=SPEC8, T_len=1_000, seed=0)
    with pytest.raises(OutOfRange):
        G.spectral_process(model, [])
    with pytest.raises(OutOfRange):
        G.spectral_process(model, [0.5, 0.5])
    with pytest.raises(OutOfRange):
        G.spectral_process(model, [0.2, 1.5])
    inc = G.spectral_process(model, [0.0, 0.5, 1.0])
    with pytest.raises(OutOfRange):
        G.increment_dependence_test(inc, 0, 0)


# -- moment report ----------------------------------------------------------

def test_norm4_iid_complex_gaussian(z_iid):
    rep = G.moment_report(z_iid, 16)
    assert abs(rep.lp_norms[rep.p_grid.index(4)] - 2.0 ** 0.25) <= 0.01


def test_norm_ladder_tracks_factorials(z_iid):
    rep = G.moment_report(z_iid, 8)
    for p, norm, se in zip(rep.p_grid, rep.lp_norms, rep.lp_std_errs):
        exact = math.factorial(p // 2) ** (1.0 / p)
        assert abs(norm - exact) <= 4.0 * se + 1e-3


def test_growth_fit_near_half(z_iid):
    rep = G.moment_report(z_iid, 16)
    assert 0.42 <= rep.growth_fit <= 0.58


def test_logconvexity_and_monotonicity_clean(z_iid):
    rep = G.moment_report(z_iid, 16)
    assert rep.logconvex_violations == 0
    assert rep.monotone_violations == 0


def test_carleman_partial_is_cumsum_of_reciprocals(z_iid):
    rep = G.moment_report(z_iid[:50_000], 10)
    oracle = np.cumsum([1.0 / n for n in rep.lp_norms])
    assert np.allclose(rep.carleman_partial, oracle, atol=1e-12)


def test_random_phase_single_atom_flat_norms():
    spec = AtomicCircleMeasure.from_pairs([(0.3, 1.0)])
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=50_000, seed=6))
    rep = G.moment_report(x, 12)
    assert all(abs(n - 1.0) < 1e-9 for n in rep.lp_norms)
    assert abs(rep.growth_fit) < 1e-6
    assert rep.logconvex_violations == 0
    # every reciprocal norm is 1: partial sums count the grid
    assert abs(rep.carleman_partial[-1] - len(rep.p_grid)) < 1e-6


def test_moment_guards_and_stability_warning(z_iid):
    with pytest.raises(OutOfRange):
        G.moment_report(z_iid, 7)
    with pytest.raises(OutOfRange):
        G.moment_report(z_iid, 34)
    with pytest.raises(OutOfRange):
        G.moment_report(z_iid, 0)
    with pytest.warns(UserWarning):
        G.moment_report(z_iid[:100], 16)


# -- Gaussianity z-scores ---------------------------------------------------

def test_gaussian_model_consistent(xg_200k):
    rep = G.gaussianity_test(xg_200k, 3, freqs=LAM8)
    assert rep.gaussian_consistent
    assert all(abs(z) <= 3.0 for z in rep.z_scores)
    assert rep.z_scores[0] == pytest.approx(0.0, abs=1e-9)  # k=1 is an identity


def test_random_phase_fails_at_k2(xr_200k):
    rep = G.gaussianity_test(xr_200k, 3, freqs=LAM8)
    assert not rep.gaussian_consistent
    assert abs(rep.z_scores[1]) >= 5.0
    assert rep.z_scores[1] < 0  # empirical |X|^4 sits below the Gaussian ladder
    # flat atom powers collapse the realization term to leakage level
    assert rep.se_realization[1] <= 1e-4


def test_random_phase_single_atom_large_negative_z():
    spec = AtomicCircleMeasure.from_pairs([(0.7, 1.0)])
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=20_000, seed=2))
    rep = G.gaussianity_test(x, 2, freqs=[0.7])
    # the bootstrap's se is ~2e-16 here, rounding of 400 equal values: no noise
    assert rep.z_scores[1] is None
    assert not rep.gaussian_consistent


@pytest.mark.parametrize("T", [1_000, 5_000, 20_000])
@pytest.mark.parametrize("seed", range(6))
def test_rounding_level_se_reports_null_z(T, seed):
    # one atom: se comes out exactly 0 or at rounding level (2-3e-16) by seed
    spec = AtomicCircleMeasure.from_pairs([(0.3, 1.0)])
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=T, seed=seed))
    rep = G.gaussianity_test(x, 2, freqs=[0.3])
    assert rep.deviations[1] == pytest.approx(-1.0, abs=1e-12)
    assert rep.z_scores == (0.0, None)
    assert not rep.gaussian_consistent


def test_noiseless_deviation_reports_null_z():
    # one atom: |X|^2 is constant and the bootstrap has one atom, so se = 0
    spec = AtomicCircleMeasure.from_pairs([(0.3, 1.0)])
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=5_000, seed=1))
    rep = G.gaussianity_test(x, 3, freqs=[0.3])
    assert rep.se_time == (0.0, 0.0, 0.0) and rep.se_realization == (0.0, 0.0, 0.0)
    assert rep.deviations == (0.0, -1.0, -5.0)  # m_2k - k! m_2^k with |X| = 1
    assert rep.z_scores == (0.0, None, None)
    assert not rep.gaussian_consistent
    assert '"z_scores": [0.0, null, null]' in json.dumps(rep.to_json_dict())
    # a zero deviation keeps z = 0 and the verdict
    rep = G.gaussianity_test(x, 1, freqs=[0.3])
    assert rep.z_scores == (0.0,) and rep.gaussian_consistent


def _random_phase_moment_scalar(k, W):
    """k!^2 [x^k] prod_j sum_a (W_j^a / a!^2) x^a for one set of atom powers."""
    fact_sq = np.array([math.factorial(a) ** 2 for a in range(k + 1)], dtype=float)
    poly = np.zeros(k + 1)
    poly[0] = 1.0
    for Wj in W:
        gen = (float(Wj) ** np.arange(k + 1)) / fact_sq
        poly = np.convolve(poly, gen)[: k + 1]
    return float(math.factorial(k) ** 2 * poly[k])


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_batched_random_phase_moment_matches_scalar_loop(k):
    rng = np.random.default_rng(k)
    W = rng.random(40) / 40
    rows = W[rng.integers(0, W.size, size=(50, W.size))]
    ref = np.array([_random_phase_moment_scalar(k, r) for r in rows])
    got = G._random_phase_moments(k, rows)[:, k]
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


def _random_phase_moment_per_k(k, W):
    """The product truncated at k, one k per call, that _random_phase_moments folded; kept as its oracle."""
    fact_sq = np.array([math.factorial(a) ** 2 for a in range(k + 1)], dtype=float)
    gen = W[:, :, None] ** np.arange(k + 1) / fact_sq
    poly = np.zeros((W.shape[0], k + 1))
    poly[:, 0] = 1.0
    for j in range(W.shape[1]):
        nxt = poly.copy()
        for a in range(1, k + 1):
            nxt[:, a:] += poly[:, : k + 1 - a] * gen[:, j, a, None]
        poly = nxt
    return math.factorial(k) ** 2 * poly[:, k]


_W = np.random.default_rng(6).random(40) / 40
_W_ZEROS = np.where(np.arange(40) % 3 == 0, 0.0, _W)


@pytest.mark.parametrize("W", [
    _W[np.random.default_rng(7).integers(0, 40, size=(50, 40))],
    _W_ZEROS[np.random.default_rng(8).integers(0, 40, size=(50, 40))],
    np.array([[0.7], [0.0], [1.3]]),  # one atom
], ids=["random", "zeros", "one-atom"])
def test_folded_bootstrap_product_matches_per_k(W):
    for k_max in range(1, 7):
        got = G._random_phase_moments(k_max, W)
        for k in range(1, k_max + 1):
            assert np.array_equal(got[:, k], _random_phase_moment_per_k(k, W))


def test_bootstrap_matches_per_resample_loop(xg_200k):
    rep = G.gaussianity_test(xg_200k, 3, freqs=LAM8)
    W = np.array([abs(_direct_amplitude(xg_200k, l)) ** 2 for l in LAM8])
    assert np.max(np.abs(np.sort(W) - np.sort(rep.atom_powers))) <= 1e-12 * W.max()
    idx = np.random.default_rng(8569203).integers(0, W.size, size=(400, W.size))
    for k in (1, 2, 3):
        boots = [
            _random_phase_moment_scalar(k, W[i]) - math.factorial(k) * float(np.sum(W[i])) ** k
            for i in idx
        ]
        sr = float(np.std(boots, ddof=1))
        assert abs(rep.se_realization[k - 1] - sr) <= 1e-9 * sr + 1e-15


def test_conjugation_invariance():
    lam = [0.123, 0.456, 0.789]
    spec = AtomicCircleMeasure.from_pairs([(l, 1.0 / 3) for l in lam])
    x = G.simulate(G.GaussianModel(spectrum=spec, T_len=50_000, seed=4))
    a = G.gaussianity_test(x, 3, freqs=lam)
    b = G.gaussianity_test(np.conj(x), 3, freqs=[(-l) % 1 for l in lam])
    assert max(abs(p - q) for p, q in zip(a.z_scores, b.z_scores)) < 1e-9
    assert a.gaussian_consistent == b.gaussian_consistent


def test_gaussianity_guards(xg_200k):
    with pytest.raises(OutOfRange):
        G.gaussianity_test(xg_200k[:1000], 0, freqs=LAM8)
    with pytest.raises(OutOfRange):
        G.gaussianity_test(xg_200k[:1000], 7, freqs=LAM8)
    with pytest.raises(OutOfRange):
        G.gaussianity_test(xg_200k[:1000], 3, freqs=[])


def test_reports_serialize():
    spec = AtomicCircleMeasure.from_pairs([(0.3, 1.0)])
    x = G.simulate(G.RandomPhaseModel(spectrum=spec, T_len=5_000, seed=1))
    # the artifact holds the JSON text, where tuples are lists
    d = json.loads(json.dumps(G.gaussianity_test(x, 2, freqs=[0.3]).to_json_dict()))
    assert d["k_values"] == [1, 2] and isinstance(d["gaussian_consistent"], bool)
    d = json.loads(json.dumps(G.moment_report(x, 6).to_json_dict()))
    assert d["p_grid"] == [2, 4, 6]
    pts = G.estimate_spectral(x, 1)
    assert {"g", "re", "im", "std_err"} == set(pts[0].to_json_dict())


# -- length-T work arrays -----------------------------------------------------
# the diagnostics as they ran before each freed its work arrays early: every
# power and centred copy alive beside the next, and a zero-padded copy of the
# sequence on every block grid; kept only as oracles

def _increment_dependence_all_live(increments, window_a, window_b, seed):
    da = increments[window_a]
    db = increments[window_b]
    A = np.abs(da) ** 2
    B = np.abs(db) ** 2
    A0 = A - A.mean()
    B0 = B - B.mean()
    scale = float(np.sqrt(np.mean(A0 ** 2))) * float(np.sqrt(np.mean(B0 ** 2)))
    T = A.size
    stat = q99 = 0.0
    if scale >= 1e-300:
        stat = float(np.mean(A0 * B0) / scale)
        cross = np.fft.irfft(np.fft.rfft(A0) * np.conj(np.fft.rfft(B0)), n=T) / T
        shifts = np.random.default_rng(seed).integers(1, T, size=1000)
        q99 = float(np.quantile(np.abs(cross[shifts]) / scale, 0.99))
    (ortho_sum,), (bm,), _ = G._lag_sums(da, db, 0, np.zeros(0, dtype=int))
    sr, si = G._block_ses([bm.real, bm.imag])
    se_o = math.sqrt(sr ** 2 + si ** 2)

    def flat(x):
        m = float(np.mean(x))
        return float(np.var(x) / (m * m)) if m > 0 else 0.0

    return G.IncrementDependenceReport(
        stat_cross=stat, null_q99=q99, dependent=bool(abs(stat) > q99),
        orthogonality_z=float(abs(ortho_sum / T) / se_o) if se_o > 0 else 0.0,
        flatness=(flat(A), flat(B)), n_boot=1000,
    )


def _gaussianity_power_loop(seq, k_max):
    """gaussianity_test's deviations and time standard errors, psi made in one full-length step."""
    a2 = np.abs(seq) ** 2
    m2k = [mean for _, mean in _full_length_powers(seq, k_max)]
    m2 = m2k[0]
    devs, se_t = [], []
    for k in range(1, k_max + 1):
        devs.append(m2k[k - 1] - math.factorial(k) * m2 ** k)
        psi = a2 ** k - math.factorial(k) * k * m2 ** (k - 1) * a2
        se_t.append(_batch_se_oracle(psi))
    return tuple(devs), tuple(se_t)


def _moment_norms_power_loop(seq, P):
    return tuple(mp ** (1.0 / p) for p, (_, mp) in zip(range(2, P + 1, 2), _full_length_powers(seq, P // 2)))


def _amplitudes_padded(seq, lams, table=None):
    T = seq.size
    B, n_blocks = torus._block_grid(T)
    rows = np.zeros(n_blocks * B, dtype=complex)
    rows[:T] = seq
    rows = rows.reshape(n_blocks, B)
    out = np.empty(lams.size, dtype=complex)
    for sl, base, blocks in table or torus._block_phasors(lams, T):
        out[sl] = np.sum((rows @ base.conj()) * blocks.conj(), axis=0) / T
    return out


@st.composite
def _work_case(draw):
    """(model, thresholds): both models, exact (T = B^2) and ragged block grids, empty windows."""
    spectrum = _spectrum(draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 64)))
    cls = draw(st.sampled_from([G.GaussianModel, G.RandomPhaseModel]))
    B = draw(st.integers(2, 60))
    T_len = draw(st.sampled_from([1, 2, 3, B * B - 1, B * B, B * B + 1, 200_000]))
    t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return cls(spectrum=spectrum, T_len=T_len, seed=draw(st.integers(0, 2 ** 32 - 1))), [0.0, t, 1.0]


@settings(max_examples=25, deadline=None)
@given(_work_case())
@example((G.GaussianModel(spectrum=_spectrum(0, 64), T_len=200_000, seed=3), [0.0, 0.5, 1.0]))
@example((G.RandomPhaseModel(spectrum=_spectrum(1, 64), T_len=448 ** 2, seed=4), [0.0, 0.3, 1.0]))
def test_freed_work_arrays_match_the_all_live_oracles(case):
    model, thresholds = case
    T = model.T_len
    seq = G.simulate(model)
    lam, _, table = model._atoms
    # drawn windows, then constant ones: |w|^2 has no variance (the scale < 1e-300 branch) or no mean
    for windows in (G.spectral_process(model, thresholds), (np.full(T, 1.0 + 1.0j), np.zeros(T, dtype=complex))):
        kept = [w.copy() for w in windows]
        got = G.increment_dependence_test(windows, 0, 1, seed=model.seed)
        assert repr(got) == repr(_increment_dependence_all_live(kept, 0, 1, model.seed))
        # the caller's windows are read, never written
        assert all(w.tobytes() == k.tobytes() for w, k in zip(windows, kept))
        for w in windows:
            A = np.abs(w) ** 2
            assert np.var(A) == np.mean((A - A.mean()) ** 2)
    assert torus._amplitudes_at(seq, lam, table).tobytes() == _amplitudes_padded(seq, lam, table).tobytes()
    assert torus._amplitudes_at(seq, lam).tobytes() == _amplitudes_padded(seq, lam).tobytes()
    rep = G.gaussianity_test(seq, 3, freqs=list(lam), model=model)
    assert repr((rep.deviations, rep.se_time)) == repr(_gaussianity_power_loop(seq, 3))
    with mock.patch.object(G, "_amplitudes_at", _amplitudes_padded):
        assert repr(rep) == repr(G.gaussianity_test(seq, 3, freqs=list(lam), model=model))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-T stability warning
        mom = G.moment_report(seq, 16)
    assert repr(mom.lp_norms) == repr(_moment_norms_power_loop(seq, 16))
    assert (mom.lp_std_errs, mom.logconvex_violations) == _moment_oracle(seq, 16)


def _traced_peak(fn):
    """Peak bytes traced while fn() runs, above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_increment_windows_are_freed_before_the_fft_pass():
    T = 200_000
    model = G.GaussianModel(spectrum=_spectrum(11, 64), T_len=T, seed=3)
    lam = model._atoms[0]  # builds the phasor table before tracing
    ts = [lam[0], lam[32] + 1e-12, 1.0]
    # passed inline as gauss-sim passes them, so the test holds the windows' only reference
    peak = _traced_peak(lambda: G.increment_dependence_test(G.spectral_process(model, ts), 0, 1, seed=3))
    assert peak <= 4 * T * 16  # 5.5 complex length-T arrays when both windows live to the end


def test_moment_statistics_hold_no_length_t_work_array():
    T = 10 ** 6  # an exact block grid, 1000 x 1000: the amplitudes read a view of seq
    model = G.GaussianModel(spectrum=_spectrum(11, 64), T_len=T, seed=3)
    seq = G.simulate(model)
    peak = _traced_peak(lambda: G.gaussianity_test(seq, 3, freqs=list(model._atoms[0]), model=model))
    assert peak <= 0.5 * T * 8  # 2.1 real length-T arrays when the powers are full-length
    peak = _traced_peak(lambda: G.moment_report(seq, 16))
    assert peak <= 0.25 * T * 8  # 2.0 real length-T arrays when the powers are full-length
