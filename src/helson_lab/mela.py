"""Moment-problem measures on (0, 1/2] via linear programming.

Find a signed atomic measure sigma on a grid in (0, 1/2] with first moment
integral s d(sigma) = 1 and |integral s^{2k+1} d(sigma)| <= eps for all
k >= 1, of minimal total variation.  The infinite constraint family is
truncated at k_max with a rigorous geometric tail bound: s <= 1/2 gives
|s^{2k+1}| <= 2^{-(2k+1)}, so enforcing eps/2 on k <= k_max plus a tail
allowance 2^{-(2 k_max + 1)} * tv <= eps/4 covers every k.  The certified
total-variation target is 2 |log eps| + 6.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import OutOfRange
from .linprog import GAP_TOL, LPResult, lp_solve

_WEIGHT_PRUNE = 1e-12


@dataclass(frozen=True)
class SignedGridMeasure:
    """Atomic signed measure on (0, 1/2]: strictly increasing s values."""

    atoms: Tuple[Tuple[float, float], ...]  # (s, w)

    def __post_init__(self):
        s_prev = 0.0
        for s, _ in self.atoms:
            if not (0.0 < s <= 0.5):
                raise OutOfRange(f"atom location {s} outside (0, 1/2]")
            if s <= s_prev:
                raise OutOfRange("atom locations must be strictly increasing")
            s_prev = s

    @property
    def total_variation(self) -> float:
        return sum(abs(w) for _, w in self.atoms)

    @staticmethod
    def from_atoms(pairs) -> "SignedGridMeasure":
        return SignedGridMeasure(tuple(sorted((float(s), float(w)) for s, w in pairs)))

    def locations(self) -> np.ndarray:
        return np.array([s for s, _ in self.atoms], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def moment(self, power: int) -> float:
        """integral s^power d(sigma), by direct summation."""
        return float(np.sum(self.weights() * self.locations() ** power))

    def to_json_dict(self) -> dict:
        return {
            "atoms": [{"s": s, "w": w} for s, w in self.atoms],
            "total_variation": self.total_variation,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SignedGridMeasure":
        return SignedGridMeasure.from_atoms((a["s"], a["w"]) for a in d["atoms"])


@dataclass(frozen=True)
class MomentCertificate:
    epsilon: float
    k_max: int
    first_moment_error: float
    max_odd_moment: float
    tail_bound: float
    tv: float
    mela_bound: float  # 2 |log eps| + 6
    # optimality evidence of the LP that produced sigma (None: not from an LP)
    lp_iterations: Optional[int] = None
    lp_duality_gap: Optional[float] = None

    @property
    def valid(self) -> bool:
        # tv is the LP objective sum(u + v) up to the 1e-12 weight prune
        return (
            abs(self.first_moment_error) <= 1e-8
            and self.max_odd_moment + self.tail_bound <= self.epsilon
            and self.tv <= self.mela_bound + 1e-6
            and (self.lp_duality_gap is None or self.lp_duality_gap <= GAP_TOL * (1.0 + self.tv))
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "valid": self.valid}


def mela_bound(epsilon: float) -> float:
    return 2.0 * abs(math.log(epsilon)) + 6.0


def required_k_max(epsilon: float, k_max: int) -> int:
    """Smallest k >= k_max with 2^{-(2k+1)} * (2|log eps| + 6) <= eps / 4."""
    bound = mela_bound(epsilon)
    k = max(1, int(k_max))
    while 2.0 ** (-(2 * k + 1)) * bound > epsilon / 4.0:
        k += 1
    return k


def check_moments(
    sigma: SignedGridMeasure, epsilon: float, k_max: int, lp: Optional[LPResult] = None
) -> MomentCertificate:
    """Recompute all moments by direct summation, independent of LP internals.

    When sigma comes from an LP, its iterations and duality gap ride along
    and the certificate is valid only if the gap meets lp_solve's bound.
    """
    first = sigma.moment(1) - 1.0
    odd = [abs(sigma.moment(2 * k + 1)) for k in range(1, k_max + 1)]
    max_odd = max(odd) if odd else 0.0
    tail = 2.0 ** (-(2 * k_max + 1)) * sigma.total_variation
    return MomentCertificate(
        epsilon=float(epsilon),
        k_max=int(k_max),
        first_moment_error=first,
        max_odd_moment=max_odd,
        tail_bound=tail,
        tv=sigma.total_variation,
        mela_bound=mela_bound(epsilon),
        lp_iterations=None if lp is None else lp.iterations,
        lp_duality_gap=None if lp is None else lp.duality_gap,
    )


def solve_mela(
    epsilon: float,
    grid_size: int = 240,
    k_max: int = 6,
) -> Tuple[SignedGridMeasure, MomentCertificate]:
    """LP for the minimal total-variation moment measure at a given epsilon.

    Variables are w_i = u_i - v_i at grid points s_i uniform on
    [1/(4 grid_size), 1/2]; minimize sum(u_i + v_i) subject to the first
    moment equal to 1 and truncated odd moments within eps/2.
    """
    if not (0.0 < epsilon <= 0.5):
        raise OutOfRange(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if grid_size < 50:
        raise OutOfRange(f"grid_size must be >= 50, got {grid_size}")
    k_max = required_k_max(epsilon, k_max)

    delta = 1.0 / (4.0 * grid_size)
    s = np.linspace(delta, 0.5, grid_size)
    G = grid_size

    c = np.ones(2 * G)
    A_eq = np.concatenate([s, -s])[None, :]
    b_eq = np.array([1.0])
    rows: List[np.ndarray] = []
    for k in range(1, k_max + 1):
        p = s ** (2 * k + 1)
        rows.append(np.concatenate([p, -p]))
        rows.append(np.concatenate([-p, p]))
    A_ub = np.array(rows)
    b_ub = np.full(2 * k_max, epsilon / 2.0)

    res = lp_solve(c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    w = res.x[:G] - res.x[G:]
    atoms = [(float(s[i]), float(w[i])) for i in np.flatnonzero(np.abs(w) > _WEIGHT_PRUNE)]
    measure = SignedGridMeasure.from_atoms(atoms)
    cert = check_moments(measure, epsilon, k_max, lp=res)
    return measure, cert
