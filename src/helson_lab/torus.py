"""Foundational types and primitives for trig polynomials and atomic measures.

A SparseTrigPoly is a finitely supported coefficient map on the integer
lattice Z^n, read as p(t) = sum_m c_m e^{2 pi i m.t} on the torus T^n.
An AtomicCircleMeasure is a finite list of weighted atoms on the circle,
with frequencies in [0,1) as fractions of a full turn.  The Fourier
orientation used everywhere is mu_hat(g) = sum_j w_j e^{+2 pi i g lambda_j}.
Every sum of that shape over a run of integers (the sequences in gauss, the
Helson scan in projector) goes through one blocked exponential-sum kernel,
_synthesize, and its adjoint _amplitudes_at.

Frequencies coming from rational input stay exact (fractions.Fraction);
floats are quarantined: they can exhibit near-dependences but never certify
independence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetExceeded, DimensionTooLarge, OutOfRange

LatticePoint = Tuple[int, ...]
Frequency = Union[Fraction, float]

COEFF_PRUNE_TOL = 1e-15  # stored-zero cutoff at construction
FLOAT_FREQ_TOL = 1e-12   # distinctness tolerance for float frequencies

# cap on scratch matrix entries for chunked evaluation
_EVAL_CHUNK_ENTRIES = 4_000_000
_HALF_TABLE_BUDGET = 10 ** 6  # entries in independence_check's larger half table
_CHUNK_ELEMS = 1 << 22  # cap on sqrt(T)*atoms per phasor block (~64 MB complex)


def _reduce(f) -> Frequency:
    """f mod 1 in [0, 1): exact for a Fraction, a float otherwise."""
    return f % 1 if isinstance(f, Fraction) else float(f) % 1.0 % 1.0  # -1e-20 % 1.0 rounds to 1.0


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def golden_min(fun: Callable[[float], float], a: float, b: float) -> float:
    """Golden-section search for a minimizer of a unimodal fun on [a, b], 36 steps."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(36):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def parse_frequency(obj) -> Frequency:
    """Parse a JSON frequency: "p/q" string -> exact Fraction, number -> float."""
    return _reduce(Fraction(obj) if isinstance(obj, str) else obj)


def frequency_to_json(f: Frequency):
    if isinstance(f, Fraction):
        return f"{f.numerator}/{f.denominator}"
    return float(f)


# ---------------------------------------------------------------------------
# sparse trig polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseTrigPoly:
    """Finitely supported Fourier-coefficient map on Z^dim.

    Coefficients of modulus <= 1e-15 are dropped at construction; keys must
    all have length dim.
    """

    dim: int
    coeffs: Dict[LatticePoint, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise OutOfRange(f"dim must be >= 1, got {self.dim}")
        pruned: Dict[LatticePoint, complex] = {}
        for m, c in self.coeffs.items():
            key = tuple(int(x) for x in m)
            if len(key) != self.dim:
                raise OutOfRange(f"lattice point {key} has length {len(key)}, expected {self.dim}")
            c = complex(c)
            if abs(c) > COEFF_PRUNE_TOL:
                pruned[key] = c
        object.__setattr__(self, "coeffs", pruned)

    def terms(self) -> List[Tuple[LatticePoint, complex]]:
        """Coefficients in deterministic (lexicographic) order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def max_abs_coord(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(x) for x in m) for m in self.coeffs)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points in [0,1)^dim; points shape (S, dim) -> (S,) complex."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.shape[1] != self.dim:
            raise OutOfRange("point dimension mismatch")
        if not self.coeffs:
            return np.zeros(points.shape[0], dtype=complex)
        items = self.terms()
        M = np.array([m for m, _ in items], dtype=float)      # (terms, dim)
        c = np.array([v for _, v in items], dtype=complex)    # (terms,)
        out = np.empty(points.shape[0], dtype=complex)
        chunk = max(1, _EVAL_CHUNK_ENTRIES // max(1, len(c)))
        for lo in range(0, points.shape[0], chunk):
            P = points[lo:lo + chunk]
            out[lo:lo + chunk] = np.exp(2j * np.pi * (P @ M.T)) @ c
        return out

    # JSON: {"dim": n, "terms": [{"m": [...], "re": x, "im": y}]}
    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"m": list(m), "re": c.real, "im": c.imag} for m, c in self.terms()
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SparseTrigPoly":
        coeffs = {tuple(t["m"]): complex(t["re"], t["im"]) for t in d["terms"]}
        return SparseTrigPoly(int(d["dim"]), coeffs)


# ---------------------------------------------------------------------------
# atomic measures and frequency sets
# ---------------------------------------------------------------------------

def _check_distinct(freqs: Sequence[Frequency], what: str) -> None:
    # exact equality for rationals, 1e-12 circle distance for pairs with a
    # float.  In exact order equal rationals sit side by side, a float's
    # nearest partner is a neighbour, and its farthest (the closest across
    # 0 ~ 1) is the first or the last entry; only those pairs are compared.
    if len(freqs) < 2:
        return
    order = sorted(range(len(freqs)), key=lambda i: (float(freqs[i]), freqs[i]))
    first, last = order[0], order[-1]
    pairs = list(zip(order, order[1:]))
    pairs += [
        (i, end)
        for i in order
        if not isinstance(freqs[i], Fraction)
        for end in (first, last)
        if end != i
    ]
    for i, j in pairs:
        fi, fj = freqs[i], freqs[j]
        if isinstance(fi, Fraction) and isinstance(fj, Fraction):
            if fi == fj:
                raise OutOfRange(f"duplicate frequency {fi} in {what}")
        elif _circle_dist(float(fi), float(fj)) <= FLOAT_FREQ_TOL:
            raise OutOfRange(f"frequencies {fi} and {fj} coincide in {what}")


@dataclass(frozen=True)
class AtomicCircleMeasure:
    """Finite atomic measure on the circle: list of (frequency, complex weight)."""

    atoms: Tuple[Tuple[Frequency, complex], ...]

    def __post_init__(self):
        norm = tuple((_reduce(f), complex(w)) for f, w in self.atoms)
        _check_distinct([f for f, _ in norm], "AtomicCircleMeasure")
        object.__setattr__(self, "atoms", norm)

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Frequency, complex]]) -> "AtomicCircleMeasure":
        return AtomicCircleMeasure(tuple(pairs))

    def total_variation(self) -> float:
        return float(sum(abs(w) for _, w in self.atoms))

    def frequencies(self) -> np.ndarray:
        return np.array([float(f) for f, _ in self.atoms], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=complex)

    def to_json_dict(self) -> dict:
        atoms = sorted(self.atoms, key=lambda fw: (float(fw[0]), fw[1].real))
        return {
            "atoms": [
                {"freq": frequency_to_json(f), "re": w.real, "im": w.imag}
                for f, w in atoms
            ]
        }

    @staticmethod
    def from_json_dict(d: dict) -> "AtomicCircleMeasure":
        return AtomicCircleMeasure(
            tuple(
                (parse_frequency(a["freq"]), complex(a.get("re", 0.0), a.get("im", 0.0)))
                for a in d["atoms"]
            )
        )


@dataclass(frozen=True)
class FiniteFrequencySet:
    """Finite list of circle frequencies, exact rationals or floats, pairwise distinct."""

    freqs: Tuple[Frequency, ...]

    def __post_init__(self):
        # a Python int stays exact here; JSON integers arrive as floats from parse_frequency
        norm = tuple(_reduce(Fraction(f) if isinstance(f, int) else f) for f in self.freqs)
        _check_distinct(norm, "FiniteFrequencySet")
        object.__setattr__(self, "freqs", norm)

    def __len__(self) -> int:
        return len(self.freqs)

    def values(self) -> np.ndarray:
        return np.array([float(f) for f in self.freqs], dtype=float)

    def all_rational(self) -> bool:
        return all(isinstance(f, Fraction) for f in self.freqs)

    def to_json_dict(self) -> dict:
        return {"freqs": [frequency_to_json(f) for f in self.freqs]}

    @staticmethod
    def from_json_dict(d: dict) -> "FiniteFrequencySet":
        return FiniteFrequencySet(tuple(parse_frequency(f) for f in d["freqs"]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def a_norm_lattice(p: SparseTrigPoly) -> float:
    """Sum of coefficient moduli (the A-norm of p read as a map on Z^n)."""
    return float(sum(abs(c) for c in p.coeffs.values()))


def grid_values(p: SparseTrigPoly, N: int) -> np.ndarray:
    """p at the N^dim grid points k/N, by one inverse FFT of its coefficients.

    Coefficients are folded mod N, so the values are exact once N exceeds
    2 max|coordinate| and aliased below that; callers set the grid.
    """
    dense = np.zeros((N,) * p.dim, dtype=complex)
    for m, c in p.coeffs.items():
        dense[tuple(x % N for x in m)] += c
    return np.fft.ifftn(dense) * (N ** p.dim)


def l1_norm_torus(p: SparseTrigPoly, grid_per_dim: int) -> float:
    """Uniform-grid average of |p| over T^dim.

    Spectrally accurate for trig polynomials once the grid clears the
    support; requires grid_per_dim >= 4 * max|coordinate| and dim <= 4.
    """
    if p.dim > 4:
        raise DimensionTooLarge(f"l1_norm_torus supports dim <= 4, got {p.dim}")
    maxdeg = p.max_abs_coord()
    if grid_per_dim < max(4, 4 * maxdeg):
        raise OutOfRange(
            f"grid_per_dim {grid_per_dim} below anti-aliasing bound {max(4, 4 * maxdeg)}"
        )
    return float(np.mean(np.abs(grid_values(p, int(grid_per_dim)))))


def l1_norm_monte_carlo(p, samples: int, seed: int) -> Tuple[float, float]:
    """Monte Carlo estimate of the L^1 norm with standard error.

    p is any function on T^dim with a ``dim`` and a vectorised
    ``evaluate(points)`` that bounds its own scratch space, such as a
    SparseTrigPoly or a drury.DruryFunction, so the points are drawn in
    chunks of _EVAL_CHUNK_ENTRIES // dim, which bound only the sample array.
    High-dimension fallback for l1_norm_torus; deterministic given seed: the
    points are one default_rng(seed) stream whatever the chunking.
    """
    if samples < 1000:
        raise OutOfRange(f"samples must be >= 1000, got {samples}")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = int(samples)
    chunk_pts = max(1, _EVAL_CHUNK_ENTRIES // p.dim)
    while remaining > 0:
        take = min(chunk_pts, remaining)
        pts = rng.random((take, p.dim))
        vals = np.abs(p.evaluate(pts))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        remaining -= take
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return mean, math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# exponential sums over a run of integers
# ---------------------------------------------------------------------------

def _block_grid(T_len: int) -> Tuple[int, int]:
    """(B, number of blocks) for n = b*B + k with B = ceil(sqrt(T_len)), 0 <= k < B."""
    B = math.isqrt(T_len - 1) + 1
    return B, -(-T_len // B)


def _block_phasors(lam: np.ndarray, T_len: int):
    """Phasor blocks of the atoms lam over n < T_len, one atom chunk at a time.

    Yields (atom slice, base, blocks) with base[k, j] = e^{2 pi i k lam_j}
    (B x A_chunk) and blocks[b, j] = e^{2 pi i b B lam_j} (blocks x A_chunk),
    so e^{2 pi i n lam_j} = blocks[b, j] * base[k, j] and every sum over n
    becomes one matrix product per chunk with O(sqrt(T_len) A) exponentials.
    Phases are reduced mod 1 before the exponential, as in a direct sum;
    chunks keep B * A_chunk <= _CHUNK_ELEMS.
    """
    B, n_blocks = _block_grid(T_len)
    ks = np.arange(B, dtype=float)
    bBs = np.arange(n_blocks, dtype=float) * B
    step = max(1, _CHUNK_ELEMS // B)
    for j0 in range(0, lam.size, step):
        sl = slice(j0, j0 + step)
        base = np.exp(2j * np.pi * (np.outer(ks, lam[sl]) % 1.0))
        blocks = np.exp(2j * np.pi * (np.outer(bBs, lam[sl]) % 1.0))
        yield sl, base, blocks


def _phasor_table(lam: np.ndarray, T_len: int):
    """_block_phasors(lam, T_len) as a list kept for many sums when lam fits in one chunk, else None.

    Its C-ordered column subsets are a fresh build for lam[m], bit for bit.
    """
    B, _ = _block_grid(T_len)
    return list(_block_phasors(lam, T_len)) if lam.size <= max(1, _CHUNK_ELEMS // B) else None


def _synthesize(chunks, amps: np.ndarray, T_len: int) -> np.ndarray:
    """X_n = sum_j amps_j e^{2 pi i n lam_j} for n < T_len, for one or a stack of amplitude rows.

    chunks are _block_phasors(lam, T_len) for at least one atom: the
    generator for one sum, or a list of it kept to sum many amplitude
    vectors on fixed atoms.  amps is (A,) or (R, A); a stack is one
    (R n_blocks, A_chunk) x (A_chunk, B) product per chunk, whose rows are
    the one-row results bit for bit.  A one-block grid (T_len <= 2) stays
    3-D, so numpy multiplies it row by row with the dot or gemv it uses for
    one row, which round unlike gemm.  The first chunk's product is the
    result, so a one-chunk sum allocates no other (R n_blocks, B) array.
    """

    def product(sl, base, blocks):
        rows = blocks * amps[..., None, sl]
        if blocks.shape[0] > 1:
            rows = rows.reshape(-1, rows.shape[-1])
        return rows @ base.T

    parts = (product(*chunk) for chunk in chunks)
    out = next(parts)  # row b of each stacked sum holds n = b*B .. b*B + B - 1
    for part in parts:
        out += part
    return out.reshape(*amps.shape[:-1], -1)[..., :T_len]


def _mu_hat_scan(lam: np.ndarray, g_range: int) -> Callable[[np.ndarray], np.ndarray]:
    """w -> mu_hat(g) = sum_j w_j e^{2 pi i g lam_j} for g = -g_range..g_range.

    mu_hat(g) is the kernel's synthesis at n = g + g_range of the weights
    w_j e^{-2 pi i g_range lam_j}; the phasor chunks of lam are built once
    and reused by every scan, so memory is O(sqrt(g_range) |K|) plus the
    result.  w may be a stack of weight rows (R, |K|), scanned together as
    one product with a (R, 2 g_range + 1) result.
    """
    n = 2 * g_range + 1
    chunks = list(_block_phasors(lam, n))
    shift = np.exp(-2j * np.pi * ((g_range * lam) % 1.0))
    return lambda w: _synthesize(chunks, w * shift, n)


def _amplitudes_at(seq: np.ndarray, lams: np.ndarray, table=None) -> np.ndarray:
    """(1/T) sum_n seq_n e^{-2 pi i n lam} per lam, _synthesize's adjoint; table is _phasor_table(lams, T)."""
    T = seq.size
    B, n_blocks = _block_grid(T)
    rows = np.ascontiguousarray(seq, dtype=complex)
    if n_blocks * B > T:  # a ragged grid reads a zero-padded copy, an exact one a view of seq
        rows = np.concatenate([rows, np.zeros(n_blocks * B - T, dtype=complex)])
    rows = rows.reshape(n_blocks, B)
    out = np.empty(lams.size, dtype=complex)
    for sl, base, blocks in table or _block_phasors(lams, T):
        out[sl] = np.sum((rows @ base.conj()) * blocks.conj(), axis=0) / T
    return out


def dense_fft_oracle(p: SparseTrigPoly, grid_per_dim: int) -> np.ndarray:
    """Independent coefficient recovery: evaluate p pointwise on a dense grid
    and apply the discrete Fourier transform.

    Returns the dense array indexed mod grid; entry at tuple(m % grid) should
    equal the stored coefficient at m within 1e-10.
    """
    if p.dim > 3:
        raise DimensionTooLarge(f"dense_fft_oracle supports dim <= 3, got {p.dim}")
    N = int(grid_per_dim)
    if N <= 2 * p.max_abs_coord():
        raise OutOfRange(f"grid {N} must exceed 2 * max|coordinate| = {2 * p.max_abs_coord()}")
    axes = [np.arange(N) / N for _ in range(p.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    values = p.evaluate(pts).reshape((N,) * p.dim)
    return np.fft.fftn(values) / (N ** p.dim)


# ---------------------------------------------------------------------------
# independence of frequency sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndependenceVerdict:
    status: str  # "independent" | "dependent" | "inconclusive"
    witness: Optional[Tuple[int, ...]] = None


def _canonical_sign(vec: Tuple[int, ...]) -> Tuple[int, ...]:
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-v for v in vec)
    return vec


def _grid_sums(tables: Sequence[np.ndarray]) -> np.ndarray:
    """t_1[i_1] + ... + t_k[i_k] over every choice of indices, in itertools.product order.

    The lab's one lattice enumerator: riesz builds its half-sum tables with
    it, and torus imports nothing from riesz.
    """
    sums = np.zeros(1, dtype=np.int64)
    for t in tables:
        sums = (sums[:, None] + t).ravel()
    return sums


def independence_check(K: FiniteFrequencySet, coeff_bound: int) -> IndependenceVerdict:
    """Test weak independence over |n_j| <= coeff_bound by meet-in-the-middle.

    Rationals get an exact verdict: whenever sum n_j lambda_j is an integer,
    every n_j lambda_j must be one.  A float frequency makes it inconclusive,
    with a near-dependence (within 1e-9) as the witness.  Either witness has
    the least sum |n_j|, then canonical sign and the least tuple(-n).  The
    larger half of K may span at most 1e6 vectors.
    """
    k = len(K)
    if k > 12 or not 0 <= coeff_bound <= 20:
        raise OutOfRange(f"need |K| <= 12 and 0 <= coeff_bound <= 20, got {k} and {coeff_bound}")
    half, width = k // 2, 2 * coeff_bound + 1
    if width ** (k - half) > _HALF_TABLE_BUDGET:
        raise BudgetExceeded(f"{width ** (k - half)} half-table entries exceed the 1e6 budget")

    cs, rational = range(-coeff_bound, coeff_bound + 1), K.all_rational()
    if rational:
        mod, tol = math.lcm(*(f.denominator for f in K.freqs)), 0
        # exact Python-int arithmetic where a half's residue sums could overflow int64
        dtype = np.int64 if mod * k < 2 ** 62 else object
        res = [np.array([int(c * f * mod) % mod for c in cs], dtype=dtype) for f in K.freqs]
        nontrivial = [r != 0 for r in res]
    else:
        mod, tol = 1.0, 1e-9
        terms = [np.array(cs) * lam for lam in K.values()]
        res = [t % 1.0 for t in terms]
        nontrivial = [np.abs(t - np.round(t)) > tol for t in terms]
    # per half: the residue, level sum |n_j| and nontrivial-term count of every entry, kept
    # as group 2 l + f = (residues ascending, indices) at level l and nontrivial flag f
    groups = []
    for j0, j1, sign in ((0, half, -1), (half, k, 1)):
        r = sign * _grid_sums(res[j0:j1]) % mod  # the left half looks up the opposite residue
        g = 2 * _grid_sums([np.abs(np.array(cs))] * (j1 - j0)) + (_grid_sums(nontrivial[j0:j1]) > 0)
        # residues within tol of 0 or mod repeat past the other end: floats match across the wrap
        idx = np.concatenate([np.arange(r.size), np.flatnonzero(r < tol), np.flatnonzero(r > mod - tol)])
        r = np.concatenate([r, r[r < tol] + mod, r[r > mod - tol] - mod])
        order = np.lexsort((r, g[idx]))
        cuts = np.searchsorted(g[idx][order], np.arange(2 * (j1 - j0) * coeff_bound + 3))
        groups.append([(r[order[a:b]], idx[order[a:b]]) for a, b in zip(cuts[:-1], cuts[1:])])

    for s in range(1, k * coeff_bound + 1):
        best = -1  # product-order index of the whole vector; its order is lexicographic
        for p in range(max(0, s - (k - half) * coeff_bound), min(s, half * coeff_bound) + 1):
            for fl, fr in ((1, 1), (1, 0), (0, 1)):
                (tl, il), (rs, ir) = groups[0][2 * p + fl], groups[1][2 * (s - p) + fr]
                lo, hi = np.searchsorted(rs, tl - tol, "left"), np.searchsorted(rs, tl + tol, "right")
                hit = np.flatnonzero(hi > lo)
                if hit.size:
                    h = hit[np.argmax(il[hit])]
                    best = max(best, int(il[h]) * width ** (k - half) + int(ir[lo[h]:hi[h]].max()))
        if best >= 0:
            vec = tuple(int(x) - coeff_bound for x in np.unravel_index(best, (width,) * k))
            return IndependenceVerdict("dependent" if rational else "inconclusive", _canonical_sign(vec))
    return IndependenceVerdict("independent" if rational else "inconclusive")


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
