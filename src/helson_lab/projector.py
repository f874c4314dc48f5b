"""Helson constants, approximate indicators, and the telescoping projector.

approx_indicator builds a degree-D trig polynomial phi with phi = 1 on a
finite set K and |phi| <= eps on sampled forbidden points F by the LP of
_indicator_lp.  Its ceilings give r_n >= cos(pi/8) |phi_hat(n)|, so the
true A-norm of the solution is within sec(pi/8) ~ 1.083 of the LP
objective, and its inscribed 8-gon caps guarantee |phi| <= eps at every
constrained point.

The telescoping series uses eps_k = e^{-kp} exactly; sup differences of
consecutive indicators are bounded by 2 eps_k on the constraint set by
construction and re-checked numerically.

helson_constant is a heuristic upper estimate: polished multistart on the
ell^1 sphere, each start improved by coordinate line searches; it reports
the best witness found, never a certified constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import Infeasible, InfeasibleSeparation, OutOfRange
from .linprog import LP_MAX_ENTRIES, ConstraintMatrix, dense_entries, lp_solve
from .tasks import run_tasks
from .torus import (
    AtomicCircleMeasure,
    FiniteFrequencySet,
    SparseTrigPoly,
    _circle_dist,
    _mu_hat_scan,
    _reduce,
    a_norm_lattice,
    golden_min,
    grid_values,
)

Scan = Callable[[np.ndarray], np.ndarray]  # weights (|K|,) or (R, |K|) -> mu_hat over |g| <= g_range

_COS8 = math.cos(math.pi / 8.0)
_GRID_ELEMS = 1 << 17  # candidates x columns per product of _affine_sup: 1 MB, cache-sized
_POINT_TOL = 1e-6  # constraint residual tolerance at solution points
_MATCH_TOL = 1e-9  # circle distance at which apply_projector counts an eigenvalue as in K
# octagonal ceilings over the variable blocks (p, q, u, w, r) of one coefficient
_OCTAGON = np.array([
    [1.0, 1.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 1.0, -1.0],
    [1.0, 1.0, 1.0, 1.0, -math.sqrt(2.0)],
])
# (cos, sin) of the eight cap directions j pi / 4
_CAP_DIRS = np.array([(math.cos(j * math.pi / 4.0), math.sin(j * math.pi / 4.0)) for j in range(8)])


# ---------------------------------------------------------------------------
# Helson constant estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HelsonEstimate:
    K: FiniteFrequencySet
    g_range: int
    restarts: int
    alpha_upper: float
    witness_measure: AtomicCircleMeasure
    argmax_g: int

    def to_json_dict(self) -> dict:
        return {
            "K": self.K.to_json_dict(),
            "g_range": self.g_range,
            "restarts": self.restarts,
            "alpha_upper": self.alpha_upper,
            "witness": self.witness_measure.to_json_dict(),
            "argmax_g": self.argmax_g,
        }


def _normalize_l1(w: np.ndarray) -> np.ndarray:
    """w / ||w||_1; weights of l1 norm below 1e-12 become uniform."""
    s = np.sum(np.abs(w))
    if s < 1e-12:
        return np.full(w.size, 1.0 / w.size, dtype=complex)
    return w / s


def _affine_sup(rows: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """max_g sqrt(coefs[p] . rows[:, g]) for each candidate p, over column chunks of _GRID_ELEMS."""
    step = max(1, _GRID_ELEMS // len(coefs))
    peaks = [np.max(coefs @ rows[:, lo:lo + step], axis=1) for lo in range(0, rows.shape[1], step)]
    return np.sqrt(np.maximum(np.max(peaks, axis=0), 0.0))


def _phase_move(w: np.ndarray, j: int) -> tuple:
    """_line_search's (d, form, coefs, slope, grid, h, lo, hi) for w_j = |w_j| e^{i phi} (32-point grid).

    d is the unit vector at j.  With e = mu_hat(d) and a = mu_hat(w) - w_j e,
    |a + |w_j| e^{i phi} e|^2 has the rows (|a|^2 + |w_j|^2 |e|^2,
    2 |w_j| Re a conj(e), 2 |w_j| Im a conj(e)) against (1, cos phi, sin phi).
    """
    wj, mag = w[j], abs(w[j])

    def form(mu, e):
        a = mu - wj * e
        ae = 2.0 * mag * (a * e.conj())
        return (a * a.conj()).real + mag ** 2 * (e * e.conj()).real, ae.real, ae.imag

    return (np.eye(w.size, dtype=complex)[j], form, lambda x: np.array([np.ones_like(x), np.cos(x), np.sin(x)]).T,
            lambda q: np.hypot(q[1], q[2]), np.linspace(0.0, 2.0 * np.pi, 33)[:-1], 2.0 * np.pi / 32, -np.inf, np.inf)


def _mass_move(w: np.ndarray, i: int, j: int) -> tuple:
    """_line_search's (d, form, coefs, slope, grid, h, lo, hi) for moving mass t from atom j to atom i (17-point grid).

    d is u_i at i and -u_j at j, u the phases of w.  With b = mu_hat(d),
    |mu_hat(w + t d)|^2 has the rows (|mu_hat(w)|^2, 2 Re mu_hat(w) conj(b),
    |b|^2) against (1, t, t^2), for t in [-|w_i|, |w_j|].
    """
    lo, hi = -abs(w[i]), abs(w[j])
    u = np.exp(1j * np.angle(w))
    d = np.zeros_like(w)
    d[i], d[j] = u[i], -u[j]

    def form(mu, b):
        return (mu * mu.conj()).real, 2.0 * (mu * b.conj()).real, (b * b.conj()).real

    return (d, form, lambda x: np.array([np.ones_like(x), x, x * x]).T,
            lambda q: np.abs(q[1]) + 2.0 * max(-lo, hi) * q[2], np.linspace(lo, hi, 17), (hi - lo) / 16, lo, hi)


def _rows(mu_hat: Scan, w: np.ndarray, d: np.ndarray, form: Callable) -> Tuple[float, np.ndarray]:
    """sup |mu_hat(w)| and the 3 rows form(mu_hat(w), mu_hat(d)) of one stacked scan.

    The rows are built over column chunks of _GRID_ELEMS, so the complex
    temporaries of form stay chunk-sized, not 2 g_range + 1 long.
    """
    scan = mu_hat(np.stack([w, d]))
    sup_w = float(np.max(np.abs(scan[0])))
    rows = np.empty((3, scan.shape[1]))
    for lo in range(0, scan.shape[1], _GRID_ELEMS):
        rows[:, lo:lo + _GRID_ELEMS] = form(*scan[:, lo:lo + _GRID_ELEMS])
    return sup_w, rows


def _line_search(
    mu_hat: Scan, w: np.ndarray, d: np.ndarray, form: Callable, coefs: Callable[[np.ndarray], np.ndarray],
    slope: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, h: float, lo: float, hi: float,
) -> Tuple[float, float, float]:
    """(sup |mu_hat(w)|, x, sup at x) for the move along d whose |mu_hat|^2 is coefs(x) . rows.

    x minimizes the affine sup: the best grid point x0, then golden section
    over [x0 - h, x0 + h] clipped to [lo, hi].  slope(rows) bounds each
    column's derivative there, so a column whose value at x0 plus h slope
    stays below another's value minus its own h slope never holds the max;
    the golden section runs on the other columns.
    """
    sup_w, rows = _rows(mu_hat, w, d, form)
    s = slope(rows)
    x0 = grid[np.argmin(_affine_sup(rows, coefs(grid)))]
    at_x0 = (coefs(np.array([x0])) @ rows)[0]
    near = rows[:, at_x0 + h * s >= np.max(at_x0 - h * s) - 1e-12]

    def sup(x: float) -> float:
        return math.sqrt(max((coefs(np.array([x])) @ near).max(), 0.0))

    x = golden_min(sup, max(lo, x0 - h), min(hi, x0 + h))
    return sup_w, x, sup(x)


def _polish(mu_hat: Scan, w: np.ndarray) -> np.ndarray:
    """Coordinate descent, up to 4 sweeps: per-atom phase moves, then pairwise mass transfers.

    Each move is one _line_search.  A phase move is kept if no worse than
    sup(w), a mass move if below sup(w) - 1e-15.  A sweep is a function of
    w, so after one that returns w bit-identical every later one would too,
    and the sweeps stop there.
    """
    k = w.size
    for _ in range(4):
        start = w.copy()
        for j in range(k):
            if abs(w[j]) >= 1e-14:
                sup_w, phi, val = _line_search(mu_hat, w, *_phase_move(w, j))
                if val <= sup_w:
                    w[j] = abs(w[j]) * np.exp(1j * phi)
        for i in range(k):
            for j in range(i + 1, k):
                if abs(w[i]) + abs(w[j]) > 0.0:  # two empty atoms: the only move is t = 0
                    d, *search = _mass_move(w, i, j)
                    sup_w, t, val = _line_search(mu_hat, w, d, *search)
                    if val < sup_w - 1e-15:  # d is (u_i, -u_j) at (i, j)
                        w[i], w[j] = (abs(w[i]) + t) * d[i], (abs(w[j]) - t) * -d[j]
        w = _normalize_l1(w)
        if np.array_equal(w, start):
            break
    return w


def helson_constant(
    K: FiniteFrequencySet, g_range: int, restarts: int, seed: int
) -> HelsonEstimate:
    """Heuristic upper estimate of the Helson constant over |g| <= g_range.

    Minimizes sup_g |mu_hat(g)| over complex weights with ||mu|| = 1 by
    polished multistart: each start (uniform, then random phases, then
    complex normal draws) goes straight to the coordinate descent of
    _polish; returns the best value found and its witness, with alpha_upper
    the full scan of |mu_hat| at the witness.  Upper-bounds the true
    constant restricted to this g window; not a certificate.
    Envelope: 1 <= |K| <= 8, 0 <= g_range <= 1e6, restarts >= 1; each scan
    of mu_hat costs O(g_range |K|), so the time grows linearly in g_range.
    """
    k = len(K)
    if k == 0 or k > 8:
        raise OutOfRange(f"|K| must be in 1..8, got {k}")
    if g_range < 0 or g_range > 10 ** 6:
        raise OutOfRange(f"g_range must be in 0..1e6, got {g_range}")
    if restarts < 1:
        raise OutOfRange(f"restarts must be >= 1, got {restarts}")
    lam = K.values()
    mu_hat = _mu_hat_scan(lam, g_range)

    def sup(w: np.ndarray) -> float:
        return float(np.max(np.abs(mu_hat(w))))

    rng = np.random.default_rng(seed)
    best_w: Optional[np.ndarray] = None
    best_val = np.inf
    for r in range(restarts):
        if r == 0:
            w = np.ones(k, dtype=complex) / k
        elif r == 1:
            w = np.exp(2j * np.pi * rng.random(k)) / k
        else:
            w = rng.normal(size=k) + 1j * rng.normal(size=k)
        w = _polish(mu_hat, _normalize_l1(w.astype(complex)))
        val = sup(w)
        if val < best_val:
            best_val, best_w = val, w

    best_w = _normalize_l1(best_w)
    mods = np.abs(mu_hat(best_w))
    i = int(np.argmax(mods))
    witness = AtomicCircleMeasure(tuple(zip(K.freqs, best_w.tolist())))
    return HelsonEstimate(
        K=K,
        g_range=int(g_range),
        restarts=int(restarts),
        alpha_upper=float(mods[i]),
        witness_measure=witness,
        argmax_g=i - int(g_range),
    )


# ---------------------------------------------------------------------------
# approximate indicators by LP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxIndicator:
    K: FiniteFrequencySet
    F_samples: Tuple[float, ...]
    epsilon: float
    phi: SparseTrigPoly
    a_norm: float
    lp_objective: float
    lp_iterations: int
    lp_duality_gap: float

    def __post_init__(self):
        lamK = self.K.values()
        valsK = self.phi.evaluate(lamK[:, None])
        if np.max(np.abs(valsK - 1.0)) > _POINT_TOL:
            raise OutOfRange("indicator misses 1 on K beyond 1e-6")
        if self.F_samples:
            valsF = self.phi.evaluate(np.array(self.F_samples)[:, None])
            if np.max(np.abs(valsF)) > self.epsilon + _POINT_TOL:
                raise OutOfRange("indicator exceeds epsilon on F beyond 1e-6")

    def to_json_dict(self) -> dict:
        return {
            "K": self.K.to_json_dict(),
            "F_samples": list(self.F_samples),
            "epsilon": self.epsilon,
            "a_norm": self.a_norm,
            "lp_objective": self.lp_objective,
            "lp_iterations": self.lp_iterations,
            "lp_duality_gap": self.lp_duality_gap,
            "phi": self.phi.to_json_dict(),
        }


def _csr_rows(blocks: Sequence[Tuple[np.ndarray, np.ndarray]], n_cols: int) -> ConstraintMatrix:
    """Stack row blocks (values, columns) into a sparse matrix, exact zeros dropped.

    Each block is a (rows, width) value array with a column array that
    broadcasts to it and increases along every row, so the result is in
    canonical form: the same indptr, indices and data as csr_array of the
    dense matrix.  int32 indices, as csr_array picks them: the dense-entry
    guard keeps every index and count below 2^31.
    """
    vals, cols, counts = [], [], []
    for v, col in blocks:
        keep = v != 0.0
        vals.append(v[keep])
        cols.append(np.broadcast_to(col, v.shape)[keep])
        counts.append(np.count_nonzero(keep, axis=1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))]).astype(np.int32)
    indices = np.concatenate(cols).astype(np.int32)
    return ConstraintMatrix((np.concatenate(vals), indices, indptr), shape=(indptr.size - 1, n_cols))


def _indicator_lp(
    lamK: np.ndarray, ts: np.ndarray, epsilon: float, ns: np.ndarray
) -> Tuple[np.ndarray, ConstraintMatrix, np.ndarray, ConstraintMatrix, np.ndarray]:
    """(c, A_eq, b_eq, A_ub, b_ub) of approx_indicator's folded, lifted LP, matrices sparse.

    Variables are the blocks (p, q, u, w, r), each indexed like ns = -D..D,
    then the folded values f = (S^x, D^x, S^y, D^y) as nonnegative pairs
    (f+_j, f-_j), then P_t = Re phi(t) + eps and Q_t = Im phi(t) + eps for t
    in ts.  With x = p - q, S^x_n = x_n + x_{-n} for n = 0..D (S^x_0 = x_0)
    and D^x_n = x_n - x_{-n} for n = 1..D, and likewise for y = u - w; 2N
    link rows of at most 6 entries tie f to the coefficients.  cos is even
    in n and sin odd, so

        Re phi(t) = sum_{n>=0} S^x_n cos 2 pi n t - sum_{n>0} D^y_n sin 2 pi n t
        Im phi(t) = sum_{n>0} D^x_n sin 2 pi n t + sum_{n>=0} S^y_n cos 2 pi n t

    and each of the 2 (|K| + |F|) dense Re/Im rows carries 2N entries, not
    the 4N it would over (p, q, u, w).  The inscribed 8-gon lies in the
    eps-disk, so the shift keeps P, Q >= 0 on every feasible point, and each
    modulus cap is a 2-entry row in (P, Q).  A_eq and A_ub are assembled
    from index arrays, never as dense rows x variables arrays.
    """
    N, m, k = ns.size, ts.size, lamK.size
    D = N // 2
    nv = 9 * N + 2 * m
    # tie-breaker: the optimal face of sum r_n is degenerate, and the
    # split-part penalty picks a vertex of it with small sum |x| + |y|; it
    # shifts the ceiling objective by at most ~3e-4 relative, well under
    # reporting tolerances.  Optimal vertices with equal c.x can differ in
    # true A-norm, which is certified only within [lp_objective,
    # sec(pi/8) lp_objective]
    c = np.zeros(nv)
    c[:4 * N] = 1e-4
    c[4 * N:5 * N] = 1.0

    # fold value j sits in columns fold_cols[j] = (f+_j, f-_j); S^x, D^x
    # take j in sx, dx and S^y, D^y the same plus N.  Each has a frequency
    # n_j, a mirror sign s_j (+1 for S, -1 for D) and the offset of its
    # (p, q) or (u, w) blocks
    sx, dx = np.arange(D + 1), D + 1 + np.arange(D)
    fold_cols = 5 * N + 2 * np.arange(2 * N)[:, None] + np.arange(2)
    n_f = np.tile(np.concatenate([sx, dx - D]), 2)
    s_f = np.tile(np.repeat([1.0, -1.0], [D + 1, D]), 2)
    off = np.repeat([0, 2 * N], N)
    # link rows: x_n + s x_{-n} - f+ + f- = 0 over (p_{-n}, p_n, q_{-n}, q_n,
    # f+, f-); at n = 0 the mirrored entries are zero and dropped
    mirror, one = s_f * (n_f > 0), np.ones(2 * N)
    link = np.column_stack([mirror, one, -mirror, -one, -one, one])
    link_cols = np.column_stack([off + D - n_f, off + D + n_f, off + N + D - n_f, off + N + D + n_f, fold_cols])

    arg = 2.0 * np.pi * sx * np.concatenate([lamK, ts])[:, None]
    cs, sn = np.cos(arg), np.sin(arg[:, 1:])
    # rows 2i, 2i+1: Re phi over (S^x, D^y) and Im phi over (D^x, S^y) at
    # the i-th point of K then of F, each value on its (f+, f-) pair
    re_im = (np.hstack([cs, -sn, sn, cs]).reshape(-1, N, 1) * [1.0, -1.0]).reshape(-1, 2 * N)
    re_im_cols = fold_cols[np.concatenate([sx, N + dx, dx, N + sx])].reshape(2, 2 * N)
    # phi(lambda) = 1 on K; Re phi(t) - P_t = Im phi(t) - Q_t = -eps on F
    lifted = np.hstack([re_im[2 * k:], np.full((2 * m, 1), -1.0)])
    lift_cols = np.hstack([np.tile(re_im_cols, (m, 1)), 9 * N + np.arange(2 * m)[:, None]])
    A_eq = _csr_rows([(re_im[:2 * k], np.tile(re_im_cols, (k, 1))), (lifted, lift_cols), (link, link_cols)], nv)
    b_eq = np.concatenate([np.tile([1.0, 0.0], k), np.full(2 * m, -epsilon), np.zeros(2 * N)])

    # rows 3i..3i+2: the octagonal ceilings on coefficient i over its
    # (p, q, u, w, r) columns; then rows 8t..8t+7 of the caps, which rotate
    # (P_t, Q_t) by j pi / 4
    ceiling_cols = np.repeat(np.arange(N)[:, None] + N * np.arange(5), 3, axis=0)
    cap_cols = np.repeat(9 * N + 2 * np.arange(m)[:, None] + np.arange(2), 8, axis=0)
    A_ub = _csr_rows([(np.tile(_OCTAGON, (N, 1)), ceiling_cols), (np.tile(_CAP_DIRS, (m, 1)), cap_cols)], nv)
    b_caps = epsilon * _COS8 + epsilon * _CAP_DIRS.sum(axis=1)
    b_ub = np.concatenate([np.zeros(3 * N), np.tile(b_caps, m)])
    return c, A_eq, b_eq, A_ub, b_ub


def approx_indicator(
    K: FiniteFrequencySet,
    F_samples: Sequence[float],
    epsilon: float,
    degree: int,
) -> ApproxIndicator:
    """LP construction of a near-indicator of K avoiding F.

    minimize sum_n r_n  s.t.  octagonal ceilings on each coefficient,
    phi = 1 on K and 8-gon modulus caps |phi(t)| <= eps for t in F_samples,
    lifted and folded as in _indicator_lp: 5 N + 2 |K| + 10 |F| rows over
    9 N + 2 |F| variables, N = 2 degree + 1, solved by lp_solve.

    Envelope: 1 <= degree <= 512, |K| >= 1, |K| + |F| <= 500, and
    (R + 1) x V <= LP_MAX_ENTRIES (2^25) for R = 3 N + 2 |K| + 10 |F| and
    V = 5 N + 2 |F|.  That count is an envelope, not the LP's size: it is
    the dense size of the unfolded LP, and the LP built inside it passes
    lp_solve's count of stored entries.  It admits degree 512 at |F| = 200
    for every |K| allowed there, and degree <= 366 at |F| = 499; larger
    requests are refused before any row is built.
    """
    if degree < 1 or degree > 512:
        raise OutOfRange(f"degree must be in 1..512, got {degree}")
    if len(K) == 0:
        raise OutOfRange("K must hold at least one frequency")
    if len(K) + len(F_samples) > 500:
        raise OutOfRange("|K| + |F_samples| must be <= 500")
    n_coef, n_f = 2 * degree + 1, len(F_samples)
    entries = dense_entries(3 * n_coef + 2 * len(K) + 10 * n_f, 5 * n_coef + 2 * n_f)
    if entries > LP_MAX_ENTRIES:
        raise OutOfRange(
            f"degree {degree} with |F| = {n_f} needs {entries} dense LP entries, "
            f"past the {LP_MAX_ENTRIES}-entry solver envelope"
        )
    if not (0.0 < epsilon < 1.0):
        raise OutOfRange(f"epsilon must lie in (0, 1), got {epsilon}")
    lamK = K.values()
    ts = np.array([_reduce(t) for t in F_samples], dtype=float)
    min_sep = min(
        (_circle_dist(a, t) for a in lamK for t in ts), default=np.inf
    )
    if min_sep < 1.0 / (2.0 * degree):
        raise InfeasibleSeparation(
            f"min K-F distance {min_sep:.3e} is below the resolution 1/(2 degree)"
        )

    ns = np.arange(-int(degree), int(degree) + 1)
    c, A_eq, b_eq, A_ub, b_ub = _indicator_lp(lamK, ts, epsilon, ns)
    try:
        res = lp_solve(c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    except Infeasible as exc:
        raise InfeasibleSeparation(
            f"no degree-{degree} polynomial separates K from F at eps={epsilon}"
        ) from exc

    p, q, u, w, r = res.x[:5 * ns.size].reshape(5, ns.size)
    phi = SparseTrigPoly(1, {(int(n),): complex(x, y) for n, x, y in zip(ns, p - q, u - w)})
    return ApproxIndicator(
        K=K,
        F_samples=tuple(float(t) for t in ts),
        epsilon=float(epsilon),
        phi=phi,
        a_norm=a_norm_lattice(phi),
        lp_objective=float(np.sum(r)),
        lp_iterations=res.iterations,
        lp_duality_gap=res.duality_gap,
    )


def projector_series(
    K: FiniteFrequencySet, F_samples: Sequence[float], ps: Sequence[float], k_terms: int, degree: int
) -> List[List[ApproxIndicator]]:
    """For each p in ps, the indicators phi_{eps_k} for eps_k = e^{-kp}, k = 1..k_terms.

    Terms with eps_k below the double-precision floor 1e-14 are dropped.
    The stages are independent LPs: each distinct eps of all the series is
    solved once by run_tasks (HiGHS releases the GIL), smallest first since
    those take the most iterations, and shared (e^{-2*2} == e^{-1*4}).  Each
    stage in flight holds its own LP and HiGHS memory.  Each series comes
    back in eps order, its consecutive sup differences on K u F checked
    against 2 eps_k (OutOfRange otherwise; acceptance criterion 5 reports
    this check).  One ladder is projector_series(K, F, [p], ...)[0].
    """
    if not ps:
        raise OutOfRange("ps must hold at least one p")
    if k_terms < 1 or k_terms > 6:
        raise OutOfRange(f"k_terms must be in 1..6, got {k_terms}")
    ladders = []
    for p in ps:
        if p < 2.0 or p > 16.0:
            raise OutOfRange(f"p must lie in [2, 16], got {p}")
        ladders.append([e for e in (math.exp(-k * p) for k in range(1, k_terms + 1)) if e >= 1e-14])
    eps_all = sorted({e for eps_list in ladders for e in eps_list}, reverse=True)
    solved = run_tasks({e: partial(approx_indicator, K, F_samples, e, degree) for e in eps_all}, eps_all[::-1])
    pts = np.concatenate([K.values(), np.array(F_samples, dtype=float)])[:, None]
    out = []
    for eps_list in ladders:
        series = [solved[e] for e in eps_list]
        for k, (prev, ind) in enumerate(zip(series, series[1:]), start=1):
            d = np.max(np.abs(ind.phi.evaluate(pts) - prev.phi.evaluate(pts)))
            if d > 2.0 * prev.epsilon + 1e-6:
                raise OutOfRange(f"sup difference {d:.3e} violates the 2 eps_k bound at k={k}")
        out.append(series)
    return out


# ---------------------------------------------------------------------------
# rotation model and the spectral projector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationModel:
    """f = sum c_m z^m observed along the rotation by alpha_rot.

    Mode m is an eigenfunction with eigenvalue frequency (m alpha_rot mod 1);
    the spectral measure of f is sum |c_m|^2 at those frequencies.
    """

    alpha_rot: float
    modes: Tuple[Tuple[int, complex], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "modes",
            tuple(sorted((int(m), complex(cm)) for m, cm in self.modes)),
        )

    def eigenvalue(self, m: int) -> float:
        return _reduce(m * self.alpha_rot)

    def poly(self) -> SparseTrigPoly:
        return SparseTrigPoly(1, {(m,): cm for m, cm in self.modes})

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(cm) ** 2 for _, cm in self.modes))


def apply_projector(model: RotationModel, K: FiniteFrequencySet) -> Tuple[SparseTrigPoly, List[int]]:
    """Exact spectral projector on the rotation model: a Fourier-mode filter.

    Keeps mode m iff its eigenvalue is within the fixed 1e-9 (_MATCH_TOL)
    of K (circle metric); K is fattened by 1e-9 so membership is decidable
    in floats.
    """
    lamK = K.values()
    kept = [
        m
        for m, _ in model.modes
        if lamK.size and min(_circle_dist(model.eigenvalue(m), lam) for lam in lamK) <= _MATCH_TOL
    ]
    kept_set = set(kept)
    coeffs = {(m,): cm for m, cm in model.modes if m in kept_set}
    return SparseTrigPoly(1, coeffs), kept


def filter_with_indicator(model: RotationModel, phi: SparseTrigPoly) -> SparseTrigPoly:
    """phi(T) f: multiply mode m by phi at its eigenvalue."""
    lams = np.array([model.eigenvalue(m) for m, _ in model.modes], dtype=float)
    vals = phi.evaluate(lams[:, None])
    return SparseTrigPoly(
        1,
        {
            (m,): cm * vals[i]
            for i, (m, cm) in enumerate(model.modes)
        },
    )


def l2_coeff_distance(f: SparseTrigPoly, g: SparseTrigPoly) -> float:
    keys = set(f.coeffs) | set(g.coeffs)
    return math.sqrt(
        sum(abs(f.coeffs.get(k, 0j) - g.coeffs.get(k, 0j)) ** 2 for k in keys)
    )


def lp_norm_growth(model: RotationModel, K: FiniteFrequencySet, p_list: Sequence[float], grid: int) -> dict:
    """Table of ||pi_K f||_p / ||f||_p with the least C fitting ratio <= C p.

    The norms are grid averages with modes folded mod grid, so the grid
    must be >= 4096 and clear the anti-aliasing bound 4 max|m| of
    l1_norm_torus.
    """
    f = model.poly()
    bound = max(4096, 4 * f.max_abs_coord())
    if grid < bound:
        raise OutOfRange(f"grid {grid} below the bound {bound} (>= 4096 and >= 4 max|m|)")
    ps = sorted(float(p) for p in p_list)
    if ps and (ps[0] < 2.0 or ps[-1] > 16.0):
        raise OutOfRange("p_list must lie within [2, 16]")

    def norms(poly: SparseTrigPoly) -> Dict[float, float]:
        vals = np.abs(grid_values(poly, grid))
        return {p: float(np.mean(vals ** p) ** (1.0 / p)) for p in ps}

    pf, kept = apply_projector(model, K)
    nf, npf = norms(f), norms(pf)
    rows = []
    least_c = 0.0
    for p in ps:
        ratio = npf[p] / nf[p] if nf[p] > 0 else 0.0
        least_c = max(least_c, ratio / p)
        rows.append({"p": p, "ratio": ratio, "c_at_p": ratio / p})
    return {"rows": rows, "least_feasible_C": least_c, "kept_modes": kept}
