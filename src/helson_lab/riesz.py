"""Riesz-product measures over dissociate integer frequencies.

The measure with density prod_j (1 + alpha cos 2 pi n_j t) has Fourier
coefficients in closed form when the n_j are dissociate (every integer has
at most one representation sum eps_j n_j with eps_j in {-1,0,1}): the
coefficient at a representable m is (alpha/2)^(number of nonzero eps),
1 at m = 0, and 0 off the representable set.

A spec holds N <= 12 frequencies, since its support has 3^N points; a
longer list is refused before anything is computed.  Every table here is
a half-sum table from torus._grid_sums, the lab's lattice enumerator.
Dissociateness is certified by meet-in-the-middle over the differences
{-2..2}: the 3^N signed sums are distinct iff each half's difference set
hits 0 only trivially and the two difference sets meet only at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NotDissociate, OutOfRange
from .torus import _grid_sums


def _certify_dissociate(freqs: Tuple[int, ...]) -> None:
    diffs = np.arange(-2, 3, dtype=np.int64)
    half = len(freqs) // 2
    d_left, d_right = (_grid_sums([n * diffs for n in part]) for part in (freqs[:half], freqs[half:]))
    if np.count_nonzero(d_left == 0) != 1 or np.count_nonzero(d_right == 0) != 1:
        raise NotDissociate(f"signed sums of {freqs} collide within a half")
    common = np.intersect1d(d_left, d_right)
    if common.size != 1 or common[0] != 0:
        raise NotDissociate(f"signed sums of {freqs} collide across halves")


@dataclass(frozen=True)
class RieszProductSpec:
    """Coupling alpha in (0,1] and at most 12 strictly increasing dissociate frequencies."""

    alpha: float
    freqs: Tuple[int, ...]

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise OutOfRange(f"alpha must lie in (0, 1], got {self.alpha}")
        freqs = tuple(int(n) for n in self.freqs)
        if len(freqs) > 12:
            raise OutOfRange(f"a Riesz product takes N <= 12 frequencies, got N = {len(freqs)}")
        prev = 0
        for n in freqs:
            if n <= prev:
                raise OutOfRange("frequencies must be strictly increasing positive integers")
            prev = n
        object.__setattr__(self, "freqs", freqs)
        _certify_dissociate(freqs)

    def density_on_grid(self, grid: int) -> np.ndarray:
        """prod_j (1 + alpha cos 2 pi n_j t) on t = k/grid."""
        t = np.arange(grid) / grid
        d = np.ones(grid)
        for n in self.freqs:
            d *= 1.0 + self.alpha * np.cos(2.0 * np.pi * n * t)
        return d


def _mitm_tables(freqs: Tuple[int, ...]):
    """Half-sum tables: ((sums_left, nnz_left), (sums_right, nnz_right)).

    Both come from torus._grid_sums over the signs (0, 1, -1), in its
    product order; nnz counts the nonzero signs behind each sum.  The spec
    is dissociate, so every sum of a left and a right entry is distinct and
    the readers' sorts of those sums are unique.
    """
    signs = np.array([0, 1, -1], dtype=np.int64)
    half = len(freqs) // 2
    return tuple(
        (_grid_sums([n * signs for n in part]), _grid_sums([np.abs(signs)] * len(part)))
        for part in (freqs[:half], freqs[half:])
    )


def rigidity_search(spec: RieszProductSpec, g_range: int) -> Tuple[int, float]:
    """Maximize |sigma_hat(g)| / sigma_hat(0) over 0 < g <= g_range: (g, ratio).

    The max sits at the support point of smallest level (the number of
    nonzero signs, read from the _mitm_tables), ties broken to the smallest
    g; the support is symmetric, so that g is taken positive.  With no
    support point in range the result is (1, 0.0).  Finite truncations cap
    the ratio at alpha/2 (attained at g = n_j), so the value never
    approaches 1.  The k-fold convolution's coefficients are
    sigma_hat(m)^k, so its max over the same range is ratio ** k at the
    same g.
    """
    if g_range > 10 ** 7:
        raise OutOfRange(f"g_range must be <= 1e7, got {g_range}")
    (sl, nl), (sr, nr) = _mitm_tables(spec.freqs)
    m = (sl[:, None] + sr[None, :]).ravel()
    keep = np.flatnonzero((m > 0) & (m <= g_range))
    if keep.size == 0:
        return 1, 0.0
    m, level = m[keep], (nl[:, None] + nr[None, :]).ravel()[keep]
    i = np.lexsort((m, level))[0]
    return int(m[i]), (spec.alpha / 2.0) ** int(level[i])


def full_support(spec: RieszProductSpec) -> Tuple[np.ndarray, np.ndarray]:
    """All representable points and their coefficients.

    Returns (m sorted ascending, coefficient values), 3^N entries.
    """
    (sl, nl), (sr, nr) = _mitm_tables(spec.freqs)
    m = (sl[:, None] + sr[None, :]).ravel()
    nnz = (nl[:, None] + nr[None, :]).ravel()
    order = np.argsort(m, kind="stable")
    return m[order], (spec.alpha / 2.0) ** nnz[order]


def dense_coefficient_oracle(spec: RieszProductSpec, grid: int) -> np.ndarray:
    """Independent route: FFT of the pointwise density on a grid.

    Valid (alias-free) for |m| < grid - sum(freqs); entry at index m % grid.
    """
    d = spec.density_on_grid(grid)
    return np.fft.fft(d) / grid
