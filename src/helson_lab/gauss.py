"""Stationary sequences with atomic spectra and their moment diagnostics.

Synthesizes X_n = sum_j sqrt(w_j) xi_j e^{2 pi i n lambda_j} where xi_j are
either independent standard complex Gaussians (GaussianModel) or independent
unit random phases (RandomPhaseModel); both share the covariance
sum_j w_j e^{2 pi i g lambda_j}.  On top of the sequences: time-average
spectral estimation with honest standard errors, the increments of the
threshold family f_t (sub-sums over frequency windows) with dependence
diagnostics, empirical L^p moment growth (Carleman partial sums
sum_k 1/||f||_{2k}, log-convexity), and per-k z-scores against the
complex-Gaussian moment ladder E|X|^{2k} = k! (E|X|^2)^k.

Only atomic spectra are simulated here; continuous spectral measures can
only be mimicked by many small atoms, and every dynamical statement this
module outputs is a finite-sample consistency diagnostic, never a proof.

Standard errors combine two scales: batched time averaging (ergodic noise)
and the realization scatter of per-atom powers w_j |xi_j|^2, estimated by
resampling the atom powers observed at the spectrum's known frequencies.
A sequence whose atom powers carry no scatter (deterministic moduli) gets a
collapsed realization term, which is what makes the Gaussian/random-phase
discrimination sharp.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import OutOfRange
from .torus import AtomicCircleMeasure, _amplitudes_at, _block_phasors, _phasor_table, _reduce, _synthesize

_BATCHES = 32  # batch-means blocks for time standard errors
# samples per chunk of _lag_sums' pass: cache-sized, and a dot this long
# stays on one OpenBLAS thread (it splits dots above 10^4 terms), so the
# rounding does not depend on the thread count
_LAG_CHUNK = 1 << 13
_LAG_GROUP = 64  # lags per _hankel_dots call, whose products are (group, 2 group - 1)
_GEMM_DEPTH = 64  # longest reduction of one _hankel_dots product
_SE_ROUNDING = 1e-12  # an se below this share of k! m_2^k is rounding, not noise
_GAUSS_BOOT = 400  # atom-power resamples behind gaussianity_test's realization se
_INCREMENT_BOOT = 1000  # circular-shift surrogates behind increment_dependence_test


# ---------------------------------------------------------------------------
# models and synthesis
# ---------------------------------------------------------------------------

def _validated_spectrum(spectrum: AtomicCircleMeasure) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted frequencies and positive real weights (the gamma = sort order)."""
    lam = spectrum.frequencies()
    w = spectrum.weights()
    if lam.size == 0:
        raise OutOfRange("spectrum must carry at least one atom")
    if lam.size > 10_000:
        raise OutOfRange(f"at most 1e4 atoms supported, got {lam.size}")
    if np.max(np.abs(w.imag)) > 0.0 or np.min(w.real) <= 0.0:
        raise OutOfRange("spectral weights must be positive reals")
    order = np.argsort(lam)
    return lam[order], w.real[order]


@dataclass(frozen=True)
class _AtomicModel:
    spectrum: AtomicCircleMeasure
    T_len: int
    seed: int

    def __post_init__(self):
        _validated_spectrum(self.spectrum)
        if not isinstance(self.T_len, (int, np.integer)) or not 1 <= self.T_len <= 10 ** 7:
            raise OutOfRange(f"T_len must be an integer in 1..1e7, got {self.T_len!r}")

    @cached_property
    def _atoms(self) -> Tuple[np.ndarray, np.ndarray, Optional[list]]:
        """Sorted frequencies, amplitudes sqrt(w_j) xi_j and the run's phasor table, built on first use.

        Amplitudes are drawn once per (seed, sorted atom index), so sub-sums
        over frequency windows reuse exactly the draws of the full sequence.
        The table (torus._phasor_table) lives and dies with the model.
        """
        lam, w = _validated_spectrum(self.spectrum)
        return lam, np.sqrt(w) * self.unit_amplitudes(lam.size), _phasor_table(lam, self.T_len)


class GaussianModel(_AtomicModel):
    """X_n = sum_j sqrt(w_j) zeta_j e^{2 pi i n lambda_j}, zeta_j std complex Gaussian."""

    def unit_amplitudes(self, n_atoms: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        re = rng.standard_normal(n_atoms)
        im = rng.standard_normal(n_atoms)
        return (re + 1j * im) / math.sqrt(2.0)


class RandomPhaseModel(_AtomicModel):
    """Same covariance as GaussianModel but zeta_j = e^{2 pi i theta_j}, unit modulus."""

    def unit_amplitudes(self, n_atoms: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return np.exp(2j * np.pi * rng.random(n_atoms))


def simulate(model) -> np.ndarray:
    """Length-T_len realization; deterministic in model.seed."""
    lam, amps, table = model._atoms
    return _synthesize(table or _block_phasors(lam, model.T_len), amps, model.T_len)


# ---------------------------------------------------------------------------
# spectral estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralPoint:
    g: int
    value: complex
    std_err: float

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "re": float(self.value.real),
            "im": float(self.value.imag),
            "std_err": self.std_err,
        }


def _block_ses(block_means: Sequence[np.ndarray]) -> List[float]:
    """Standard error of each mean from the means of its B equal blocks (0 for B < 2).

    One np.std per distinct B; a row-wise reduction rounds as a 1-D one does.
    """
    sizes = np.array([bm.size for bm in block_means])
    out = np.zeros(sizes.size)
    for B in np.unique(sizes[sizes >= 2]):
        rows = np.flatnonzero(sizes == B)
        out[rows] = np.std([block_means[i] for i in rows], axis=1, ddof=1) / math.sqrt(B)
    return out.tolist()


def _batch_blocks(seq: np.ndarray) -> List[np.ndarray]:
    """Views of the B = min(_BATCHES, T) batch blocks of T // B terms, then of the tail past the last."""
    B = min(_BATCHES, seq.size)
    L = seq.size // B
    return [seq[b * L:(b + 1) * L] for b in range(B)] + [seq[B * L:]]


def _power_block_sums(seq: np.ndarray, k_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Means of |X|^{2k} for k = 1..k_max, whole (k_max,) and per batch block (k_max, B).

    One pass over the batch blocks and the tail: |X|^2 is taken per block
    and its powers by repeated multiplication, and a whole mean is the sum
    of the block sums and the tail's over T, so no length-T work array is
    made.  The tail past the last whole block enters only the whole means.
    """
    blocks = _batch_blocks(seq)
    sums = np.zeros((k_max, len(blocks)))
    for b, x in enumerate(blocks):
        a2 = np.abs(x)
        np.square(a2, out=a2)
        power = np.ones_like(a2)
        for k in range(k_max):
            power *= a2
            sums[k, b] = power.sum()
    return sums.sum(axis=1) / seq.size, sums[:, :-1] / blocks[0].size


def _hankel_dots(xw: np.ndarray, yc: np.ndarray, d: int) -> np.ndarray:
    """sum_{i < n} xw_{i+g} conj(yc_i) for g < d, n = yc.size; xw holds n + d - 1 values.

    For d > 1 the first Q = n // d rows of d terms are BLAS products: with
    X[q, c] = xw_{qd+c} and Y[q, r] = conj(yc_{qd+r}), (Y^T X)[r, r+g] sums
    lag g over the terms qd + r, so lag g is the g-th diagonal's sum.  Each
    product reduces over at most _GEMM_DEPTH rows: OpenBLAS splits longer
    gemm reductions into panels whose edges depend on the thread count, and
    so would the rounding.  The last n - Qd terms are an einsum over a
    Hankel view of xw; one lag is one BLAS dot.
    """
    n = yc.size
    if d == 1:
        return np.array([np.vdot(yc, xw[:n])])
    Q = n // d
    s = xw.strides[0]
    rest = as_strided(xw[Q * d:], shape=(d, n - Q * d), strides=(s, s))
    out = np.einsum("gi,i->g", rest, np.conj(yc[Q * d:]))
    if Q:
        X = np.ascontiguousarray(as_strided(xw, shape=(Q, 2 * d - 1), strides=(d * s, s)))
        Y = np.conj(yc[:Q * d]).reshape(Q, d)
        M = sum(Y[q:q + _GEMM_DEPTH].T @ X[q:q + _GEMM_DEPTH] for q in range(0, Q, _GEMM_DEPTH))
        out += as_strided(M, shape=(d, d), strides=(2 * d * M.itemsize, M.itemsize)).sum(axis=0)
    return out


def _lag_sums(
    x: np.ndarray, y: np.ndarray, g_max: int, probes: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """Sums of x_{n+g} conj(y_n) over n < T - g: whole and block means for g <= g_max, whole at probes.

    Returns the totals of the lags 0..g_max, the means of each one's terms
    over its batch blocks for _block_ses (B = min(_BATCHES, T - g) blocks
    of (T - g) // B terms; the tail past the last whole block enters only
    the total), and the totals at the probe lags.  One pass over chunks of
    _LAG_CHUNK samples serves every lag, so a chunk's data is read from
    cache: the lags 0..g_max go _LAG_GROUP at a time through _hankel_dots,
    cut at every block edge of the group, and each probe lag is one BLAS
    dot per chunk.  Near the end the lags read a zero-padded copy of the
    chunk's window, and x_{n+g} past T adds exact zeros.  No full-length
    array is made for complex contiguous x.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    T = x.size
    g = np.arange(g_max + 1)
    B = np.minimum(_BATCHES, T - g)
    L = (T - g) // B
    edge = B * L
    groups = [g[lo:lo + _LAG_GROUP] for lo in range(0, g_max + 1, _LAG_GROUP)]
    cuts = [np.unique(L[grp, None] * np.arange(1, _BATCHES + 1)) for grp in groups]  # the groups' block edges
    sums = np.zeros((g_max + 1, _BATCHES + 1), dtype=complex)  # blocks, then the tail
    probe_sums = np.zeros(probes.size, dtype=complex)
    for c0 in range(0, T, _LAG_CHUNK):
        c1 = min(c0 + _LAG_CHUNK, T)
        yc = y[c0:c1]
        window = x[c0:c1 + g_max]
        if window.size < c1 - c0 + g_max:
            window = np.concatenate([window, np.zeros(c1 - c0 + g_max - window.size, dtype=complex)])
        for grp, edges in zip(groups, cuts):
            inner = edges[np.searchsorted(edges, c0, side="right"):np.searchsorted(edges, c1)]
            for s0, s1 in zip([c0, *inner], [*inner, c1]):
                part = _hankel_dots(window[s0 - c0 + grp[0]:], yc[s0 - c0:s1 - c0], grp.size)
                sums[grp, np.where(s0 < edge[grp], s0 // L[grp], _BATCHES)] += part
        for p, gp in enumerate(probes):
            stop = min(c1, T - gp)
            if stop > c0:
                probe_sums[p] += np.vdot(yc[:stop - c0], x[c0 + gp:stop + gp])
    return sums.sum(axis=1), [sums[i, :B[i]] / L[i] for i in g], probe_sums


def estimate_spectral(seq: np.ndarray, g_max: int) -> List[SpectralPoint]:
    """Time-average covariance estimates (1/(T-g)) sum X_{n+g} conj(X_n).

    One chunked pass of _lag_sums over the sequence gives every lag's block
    sums, hence the estimate and the block means of its batched
    time-averaging error, and the totals at 24 probe lags far beyond g_max.
    The reported standard error adds to the batch error a realization floor
    sqrt(P/2) where P is the mean squared modulus of the estimator at the
    probe lags.  For atomic spectra the estimator converges to
    sum_j w_j |xi_j|^2 e^{2 pi i g lambda_j}, so the probe level measures the
    realization scatter sum_j (w_j |xi_j|^2)^2 that a single time series can
    never average away.
    """
    seq = np.asarray(seq)
    T = seq.size
    if g_max < 0 or g_max > T // 10:
        raise OutOfRange(f"g_max must be in 0..T/10, got {g_max}")
    rng = np.random.default_rng(101)
    lo = g_max + 1
    hi = max(lo + 1, T // 10)
    probes = np.unique(rng.integers(lo, hi, size=24))
    probes = probes[probes < T]  # T = 1 leaves no probe lag inside the sequence
    totals, means, probe_totals = _lag_sums(seq, seq, g_max, probes)
    # lag 0 sums |X_n|^2: real, whatever rounding a BLAS kernel leaves in its imaginary part
    totals[0], means[0] = totals[0].real, means[0].real
    floor_sq = 0.5 * float(np.mean(np.abs(probe_totals / (T - probes)) ** 2)) if probes.size else 0.0

    se_re = _block_ses([bm.real for bm in means])
    se_im = _block_ses([bm.imag for bm in means])
    return [
        SpectralPoint(g=g, value=complex(total / (T - g)), std_err=math.sqrt(sr ** 2 + si ** 2 + floor_sq))
        for g, (total, sr, si) in enumerate(zip(totals, se_re, se_im))
    ]


# ---------------------------------------------------------------------------
# the threshold family f_t and increment diagnostics
# ---------------------------------------------------------------------------

def spectral_process(model, thresholds: Sequence[float]) -> Tuple[np.ndarray, ...]:
    """Increments of the threshold family f_t: the sub-sums over each window [a, b).

    One increment per pair of consecutive thresholds.  Atoms are ordered by
    frequency and amplitude draws are indexed by that order, so the
    increments at thresholds (0, t, 1) sum to simulate(model) and increments
    over disjoint windows use disjoint draws.
    """
    ts = [float(t) for t in thresholds]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise OutOfRange("thresholds must be a nonempty strictly increasing list")
    if ts[0] < 0.0 or ts[-1] > 1.0:
        raise OutOfRange("thresholds must lie in [0, 1]")
    lam, amps, table = model._atoms
    T = model.T_len

    def window(m):
        # column subsets in C order, the layout of a fresh build (base[:, m] is F-ordered)
        sub = table and [(sl, base.compress(m, 1), blocks.compress(m, 1)) for sl, base, blocks in table]
        return _synthesize(sub or _block_phasors(lam[m], T), amps[m], T)

    masks = [(lam >= a) & (lam < b) for a, b in zip(ts, ts[1:])]
    return tuple(window(m) if m.any() else np.zeros(T, dtype=complex) for m in masks)


@dataclass(frozen=True)
class IncrementDependenceReport:
    stat_cross: float
    null_q99: float
    dependent: bool
    orthogonality_z: float
    flatness: Tuple[float, float]
    n_boot: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def increment_dependence_test(
    increments: Sequence[np.ndarray],
    window_a: int,
    window_b: int,
    seed: int = 0,
) -> IncrementDependenceReport:
    """Cross-moment diagnostic for two disjoint increments of spectral_process.

    stat_cross is the time correlation of |increment_a|^2 and
    |increment_b|^2; its null distribution under independent almost-periodic
    signals is built from 1000 circular-shift surrogates, and the verdict
    compares against the 99% quantile of |surrogate|.

    Caveats the verdict inherits from time averaging: disjoint windows use
    disjoint amplitude draws in both model classes, so neither is expected
    to flag ensemble dependence; and when the two windows share a difference
    frequency (any arithmetic-progression spectrum), their squared moduli
    are phase-locked and the correlation is degenerate at +-1, shifts
    included, so the verdict is only meaningful for non-resonant windows.
    The flatness entries (time variance of |increment|^2 over its squared
    mean) are reported, not judged: an equal-weight window is pinned at the
    deterministic-modulus ceiling for random phases while Gaussian draws
    scatter it below.  The windows are only read, and the test drops its
    references to them before the FFT pass: a caller that passes
    spectral_process's result inline has them freed there.
    """
    if window_a == window_b:
        raise OutOfRange("windows must differ")
    da = increments[window_a]
    db = increments[window_b]
    (ortho_sum,), (bm,), _ = _lag_sums(da, db, 0, np.zeros(0, dtype=int))
    A = np.abs(da)
    B = np.abs(db)
    np.square(A, out=A)
    np.square(B, out=B)
    del increments, da, db
    T = A.size
    ma, mb = float(A.mean()), float(B.mean())
    A -= ma  # centred in place; mean(A ** 2) is then np.var of |w_a|^2 bit for bit
    B -= mb
    va, vb = float(np.mean(A ** 2)), float(np.mean(B ** 2))
    scale = math.sqrt(va) * math.sqrt(vb)
    if scale < 1e-300:
        stat = 0.0
        q99 = 0.0
    else:
        stat = float(np.mean(A * B) / scale)
        # all circular shifts at once via FFT cross-correlation
        spec, spec_b = np.fft.rfft(A), np.fft.rfft(B)
        del A, B
        spec *= np.conj(spec_b, out=spec_b)
        del spec_b
        cross = np.fft.irfft(spec, n=T)
        cross /= T
        rng = np.random.default_rng(seed)
        shifts = rng.integers(1, T, size=_INCREMENT_BOOT)
        q99 = float(np.quantile(np.abs(cross[shifts]) / scale, 0.99))
    ortho = ortho_sum / T
    sr, si = _block_ses([bm.real, bm.imag])
    se_o = math.sqrt(sr ** 2 + si ** 2)
    z_o = float(abs(ortho) / se_o) if se_o > 0 else 0.0
    return IncrementDependenceReport(
        stat_cross=stat,
        null_q99=q99,
        dependent=bool(abs(stat) > q99),
        orthogonality_z=z_o,
        flatness=(va / (ma * ma) if ma > 0 else 0.0, vb / (mb * mb) if mb > 0 else 0.0),
        n_boot=_INCREMENT_BOOT,
    )


# ---------------------------------------------------------------------------
# moment machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    p_grid: Tuple[int, ...]
    lp_norms: Tuple[float, ...]
    lp_std_errs: Tuple[float, ...]
    carleman_partial: Tuple[float, ...]
    logconvex_violations: int
    monotone_violations: int
    growth_fit: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def moment_report(seq: np.ndarray, P: int) -> MomentReport:
    """Empirical L^p ladder for even p in 2..P with Carleman partial sums.

    growth_fit is the log p coefficient of a least-squares fit of
    log ||f||_p on the basis {1, log p, (log p)/p, 1/p}; the two decaying
    regressors absorb the Stirling correction so the exponent is read off
    the asymptote rather than the small-p curvature.

    Log-convexity of p -> log ||f||_p^p is checked by discrete second
    differences with a batch-bootstrap tolerance; monotonicity of the norms
    is flagged the same way (3 standard errors), never asserted.  The
    moments and their batch means come from one _power_block_sums pass, so
    the report holds no length-T work array beside its input.
    """
    if P < 2 or P > 32 or P % 2 != 0:
        raise OutOfRange(f"P must be even in 2..32, got {P}")
    seq = np.asarray(seq)
    T = seq.size
    if T < 10 ** (P / 4.0):
        warnings.warn(
            f"T={T} is below the 10^(P/4) heuristic for stable order-{P} moments",
            stacklevel=2,
        )
    ps = list(range(2, P + 1, 2))
    totals, bms = _power_block_sums(seq, P // 2)
    mps = totals.tolist()
    norms = [mp ** (1.0 / p) for p, mp in zip(ps, mps)]
    # delta method: d norm / d mp = norm / (p mp)
    ses = [se * n / (p * mp) if mp > 0 else 0.0 for se, n, p, mp in zip(_block_ses(bms), norms, ps, mps)]

    carleman = np.cumsum([1.0 / n for n in norms])

    logconvex_violations = 0
    log_mp = np.array([math.log(max(mp, 1e-300)) for mp in mps])
    batch_log_mp = np.log(np.maximum(bms, 1e-300))
    d2_b = batch_log_mp[:-2] - 2.0 * batch_log_mp[1:-1] + batch_log_mp[2:]
    for i, se in enumerate(_block_ses(d2_b), start=1):
        d2 = log_mp[i - 1] - 2.0 * log_mp[i] + log_mp[i + 1]
        # float-roundoff floor guards the zero-variance (constant modulus) case
        if d2 < -(3.0 * se + 1e-9):
            logconvex_violations += 1

    monotone_violations = 0
    for i in range(len(ps) - 1):
        if norms[i + 1] < norms[i] - 3.0 * (ses[i] + ses[i + 1]):
            monotone_violations += 1

    lp = np.log(np.array(ps, dtype=float))
    X = np.vstack([np.ones_like(lp), lp, lp / np.array(ps), 1.0 / np.array(ps)]).T
    beta, *_ = np.linalg.lstsq(X, np.log(np.maximum(norms, 1e-300)), rcond=None)
    return MomentReport(
        p_grid=tuple(ps),
        lp_norms=tuple(norms),
        lp_std_errs=tuple(ses),
        carleman_partial=tuple(float(c) for c in carleman),
        logconvex_violations=logconvex_violations,
        monotone_violations=monotone_violations,
        growth_fit=float(beta[1]),
    )


# ---------------------------------------------------------------------------
# Gaussianity z-scores
# ---------------------------------------------------------------------------

def _random_phase_moments(k_max: int, W: np.ndarray) -> np.ndarray:
    """E|sum_j sqrt(W_j) u_j|^{2k} over independent uniform phases u_j: column k <= k_max, row of W.

    Equals k!^2 [x^k] prod_j sum_a (W_j^a / a!^2) x^a; this is also the
    almost-sure time-average limit of |X_n|^{2k} for atomic synthesis with
    realized atom powers W_j and generic frequencies.  Each row of the 2-D W
    is one set of atom powers; all rows run one product truncated at k_max,
    whose degree-k coefficient sums as in a product truncated at k.
    """
    fact_sq = np.array([math.factorial(a) ** 2 for a in range(k_max + 1)], dtype=float)
    gen = W[:, :, None] ** np.arange(k_max + 1) / fact_sq  # gen[..., 0] == 1
    poly = np.zeros((W.shape[0], k_max + 1))
    poly[:, 0] = 1.0
    for j in range(W.shape[1]):
        nxt = poly.copy()
        for a in range(1, k_max + 1):
            nxt[:, a:] += poly[:, : k_max + 1 - a] * gen[:, j, a, None]
        poly = nxt
    return fact_sq * poly


@dataclass(frozen=True)
class GaussianityReport:
    k_values: Tuple[int, ...]
    z_scores: Tuple[Optional[float], ...]
    deviations: Tuple[float, ...]
    se_time: Tuple[float, ...]
    se_realization: Tuple[float, ...]
    atom_powers: Tuple[float, ...]
    gaussian_consistent: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def gaussianity_test(seq: np.ndarray, k_max: int, freqs: Sequence[float], model=None) -> GaussianityReport:
    """z-scores of E|X|^{2k} against the Gaussian ladder k! (E|X|^2)^k.

    The standard error adds batched time noise to a realization term from
    resampling the per-atom powers observed at the given frequencies (at
    least one; 400 resamples): for each resample the deviation predicted by
    the phase-average closed form is recomputed, and its scatter estimates
    how much the realized deviation itself varies across realizations.  A
    standard error at rounding level (below 1e-12 of the Gaussian value
    k! m_2^k, e.g. np.std of 400 equal bootstrap values) counts as 0, and a
    k whose standard error is 0 and whose deviation is not gets z = None
    (JSON null).  Verdict: Gaussian-consistent iff every z is a number with
    |z| <= 3.  The amplitude reads use model's phasor table when seq has
    its length and freqs are its sorted frequencies.  The moments come
    from one _power_block_sums pass and the influence block means from a
    second pass over the batch blocks, so the test holds no length-T work
    array beside its input.
    """
    if k_max < 1 or k_max > 6:
        raise OutOfRange(f"k_max must be in 1..6, got {k_max}")
    if len(freqs) == 0:
        raise OutOfRange("freqs must hold at least one atom frequency")
    seq = np.asarray(seq)
    totals, _ = _power_block_sums(seq, k_max)
    m2 = float(totals[0])
    lams = np.array([_reduce(l) for l in freqs], dtype=float)
    shared = model is not None and model.T_len == seq.size and np.array_equal(model._atoms[0], lams)
    W = np.abs(_amplitudes_at(seq, lams, model._atoms[2] if shared else None)) ** 2

    ks = list(range(1, k_max + 1))
    devs: List[float] = []
    se_t: List[float] = []
    se_r: List[float] = []
    zs: List[Optional[float]] = []
    rng = np.random.default_rng(8569203)
    idx = rng.integers(0, W.size, size=(_GAUSS_BOOT, W.size))
    W_boot = W[idx]
    W_boot_sum = np.sum(W_boot, axis=1)
    moments = _random_phase_moments(k_max, W_boot)
    # block means of the influence function of m_{2k} - k! m_2^k under time
    # averaging, in a second pass: a one-pass difference of block sums would
    # leave rounding where |X| is constant and the influence has no variance
    cs = [math.factorial(k) * k * m2 ** (k - 1) for k in ks]
    blocks = _batch_blocks(seq)[:-1]
    influence = np.zeros((k_max, len(blocks)))
    for b, x in enumerate(blocks):
        a2 = np.abs(x) ** 2
        influence[:, b] = [np.mean(a2 ** k - c * a2) for k, c in zip(ks, cs)]
    for k, m2k, st in zip(ks, totals.tolist(), _block_ses(influence)):
        dev = m2k - math.factorial(k) * m2 ** k
        boots = moments[:, k] - math.factorial(k) * W_boot_sum ** k
        sr = float(np.std(boots, ddof=1))
        se = math.sqrt(st ** 2 + sr ** 2)
        devs.append(dev)
        se_t.append(st)
        se_r.append(sr)
        # with no noise at all (one atom: |X|^2 constant, one bootstrap atom)
        # a nonzero deviation has no finite z; it is reported as None
        noisy = se > _SE_ROUNDING * math.factorial(k) * m2 ** k
        zs.append(dev / se if noisy else None if dev != 0 else 0.0)
    return GaussianityReport(
        k_values=tuple(ks),
        z_scores=tuple(zs),
        deviations=tuple(devs),
        se_time=tuple(se_t),
        se_realization=tuple(se_r),
        atom_powers=tuple(float(x) for x in np.sort(W)[::-1]),
        gaussian_consistent=bool(all(z is not None and abs(z) <= 3.0 for z in zs)),
    )
