"""Finite Riesz products on T^n x T and the mixed coefficient maps built
from them.

expand_Q(n, s) expands prod_{j<=n} (1 + s (z_j z + conj(z_j z))) exactly:
every term picks, per factor, one of 1, s z_j z, s conj(z_j) conj(z), so
the support is indexed by sign patterns in {-1,0,1}^n and the coefficient
is s^(number of nonzero signs).  extract_P keeps the part with z-exponent
-1 (the coefficient map of conj(z)); with the e^{+2 pi i m t} orientation
used here, its "basis" support lands on the points -e_j, with value s, and
every other coefficient is an odd power s^{2a+1} at points 1_A - 1_B with
|B| = |A| + 1.

Mixing over a signed measure in s then yields a coefficient map psi that
is 1 on the basis points and at most eps elsewhere, with A-norm at most the
total variation of the mixing measure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import MomentCheckFailed, OutOfRange
from .mela import SignedGridMeasure
from .torus import _EVAL_CHUNK_ENTRIES, COEFF_PRUNE_TOL, LatticePoint, SparseTrigPoly

_BASIS_TOL = 1e-8  # LP-grade tolerance on the basis normalization


def _check_dim(n: int) -> None:
    if n < 1 or n > 14:
        raise OutOfRange(f"n must be in 1..14, got {n}")


def _check_params(n: int, s: float) -> None:
    _check_dim(n)
    if not (0.0 < s <= 0.5):
        raise OutOfRange(f"s must lie in (0, 1/2], got {s}")


def expand_Q(n: int, s: float) -> SparseTrigPoly:
    """Exact sparse expansion of Q_s on T^(n+1); 3^n terms."""
    _check_params(n, s)
    coeffs: Dict[LatticePoint, complex] = {}
    for signs in itertools.product((-1, 0, 1), repeat=n):
        nnz = sum(1 for e in signs if e != 0)
        key = signs + (sum(signs),)
        coeffs[key] = s ** nnz
    return SparseTrigPoly(n + 1, coeffs)


def _support_strata(n: int) -> Iterator[Tuple[int, LatticePoint]]:
    """Yield (|A|, 1_A - 1_B) over disjoint A, B subset {1..n}, |B| = |A| + 1."""
    for a in range(0, (n - 1) // 2 + 1):
        for A in itertools.combinations(range(n), a):
            rest = [j for j in range(n) if j not in A]
            for B in itertools.combinations(rest, a + 1):
                m = [0] * n
                for j in A:
                    m[j] = 1
                for j in B:
                    m[j] = -1
                yield a, tuple(m)


def extract_P(n: int, s: float) -> SparseTrigPoly:
    """The z-bar part of Q_s: coefficient s^{2|A|+1} at each 1_A - 1_B.

    Enumerated directly over the (A, B) strata, so no 3^n expansion is
    materialized.  Powers are computed as s ** (2a+1), bit-identical to the
    expansion route.
    """
    _check_params(n, s)
    coeffs: Dict[LatticePoint, complex] = {}
    for a, m in _support_strata(n):
        coeffs[m] = s ** (2 * a + 1)
    return SparseTrigPoly(n, coeffs)


@dataclass(frozen=True)
class DruryFunction:
    """Coefficient map on Z^n equal to 1 on the basis-image points {-e_j}
    and of modulus <= epsilon on the rest of its support.

    It is held as its stratum moments: moments[a] is the coefficient at
    every 1_A - 1_B with |A| = a, |B| = a + 1, for a = 0 .. floor((n-1)/2).
    Moments of modulus <= 1e-15 count as 0, as SparseTrigPoly prunes them.
    The explicit map psi is built on first use only; evaluate and
    max_off_basis never need it.

    Construction is the one moment check: a moments[0] off 1 by more than
    1e-8, or a later moment above epsilon + 1e-8, raises MomentCheckFailed.
    """

    dim: int
    moments: Tuple[float, ...]
    a_norm_bound: float
    epsilon: float

    def __post_init__(self):
        n = self.dim
        _check_dim(n)
        object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))
        if len(self.moments) != (n - 1) // 2 + 1:
            raise OutOfRange(
                f"dimension {n} has {(n - 1) // 2 + 1} strata, got {len(self.moments)} moments"
            )
        if abs(self.moments[0] - 1.0) > _BASIS_TOL:
            raise MomentCheckFailed(f"first moment {self.moments[0]} is not 1 within 1e-8")
        for a, value in enumerate(self.moments[1:], start=1):
            if abs(value) > self.epsilon + _BASIS_TOL:
                raise MomentCheckFailed(
                    f"odd moment of order {2 * a + 1} has modulus {abs(value)} > epsilon {self.epsilon}"
                )

    def _pruned_moments(self) -> np.ndarray:
        """The moments with the SparseTrigPoly prune applied."""
        M = np.array(self.moments, dtype=float)
        M[np.abs(M) <= COEFF_PRUNE_TOL] = 0.0
        return M

    @functools.cached_property
    def psi(self) -> SparseTrigPoly:
        """The explicit coefficient map over the whole support."""
        return SparseTrigPoly(self.dim, {m: self.moments[a] for a, m in _support_strata(self.dim)})

    def basis_points(self) -> List[LatticePoint]:
        n = self.dim
        return [tuple(-1 if i == j else 0 for i in range(n)) for j in range(n)]

    def max_off_basis(self) -> float:
        """max |moments[a]| over the strata a >= 1 (0 when there are none)."""
        return float(np.max(np.abs(self._pruned_moments()[1:]), initial=0.0))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """psi at points in [0,1)^dim; points shape (S, dim) -> (S,) complex.

        psi(t) = sum_a moments[a] e_a(t), where e_a is the coefficient of
        x^a y^(a+1) in prod_j (1 + x u_j + y conj(u_j)), u_j = e^{2 pi i t_j}.
        The product is expanded factor by factor with degrees truncated to
        a <= floor((n-1)/2), so a point costs O(n^3), not O(support).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.shape[1] != self.dim:
            raise OutOfRange("point dimension mismatch")
        M = self._pruned_moments()
        top = M.size - 1
        # the expansion E and its two product buffers stay within
        # _EVAL_CHUNK_ENTRIES entries
        chunk = max(1, _EVAL_CHUNK_ENTRIES // (3 * (top + 1) * (top + 2)))
        out = np.empty(points.shape[0], dtype=complex)
        for lo in range(0, points.shape[0], chunk):
            u = np.exp(2j * np.pi * points[lo:lo + chunk]).T  # (dim, chunk)
            E = np.zeros((top + 1, top + 2, u.shape[1]), dtype=complex)
            E[0, 0] = 1.0
            x_terms = np.empty_like(E[:-1])
            y_terms = np.empty_like(E[:, :-1])
            for uj in u:
                np.multiply(uj, E[:-1], out=x_terms)
                np.multiply(np.conj(uj), E[:, :-1], out=y_terms)
                E[1:] += x_terms
                E[:, 1:] += y_terms
            a = np.arange(top + 1)
            out[lo:lo + chunk] = M @ E[a, a + 1]
        return out

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "epsilon": self.epsilon,
            "a_norm_bound": self.a_norm_bound,
            "psi": self.psi.to_json_dict(),
        }


def mix_drury(n: int, sigma: SignedGridMeasure, epsilon: float) -> DruryFunction:
    """Mix extract_P over sigma without expanding any P_s.

    psi(1_A - 1_B) = integral s^{2|A|+1} d(sigma), so only one moment per
    stratum is needed; cost is (number of strata) x (atom count), and the
    support is enumerated only if psi is asked for.  DruryFunction checks
    the moments, so a sigma failing one raises MomentCheckFailed.
    """
    _check_dim(n)
    if not (0.0 < epsilon):
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    return DruryFunction(
        dim=n,
        moments=tuple(sigma.moment(2 * a + 1) for a in range(0, (n - 1) // 2 + 1)),
        a_norm_bound=sigma.total_variation,
        epsilon=float(epsilon),
    )
