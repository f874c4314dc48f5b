"""Linear programming front end.

Solves   min c.x   s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0
(callers split free variables into differences of nonnegative ones).

Thin wrapper over scipy's HiGHS interface.  Every LP is solved by the
HiGHS interior-point method with crossover (method="highs-ipm"), so the
solution is a vertex with basic duals, and the same input gives the same
bytes on every run.  The wrapper pins down the conventions the rest of the
package relies on: one calling form that takes each constraint matrix dense
or as a scipy sparse matrix and hands it to HiGHS as csr_array(A) (equal
inputs give HiGHS the same matrix, so the same bytes), duals reported as
sensitivities dz/db for both row groups, an explicit duality gap, and this
package's error taxonomy (Infeasible / Unbounded / SolverStall) instead of
status codes.

LP_MAX_ENTRIES bounds every LP by the entries HiGHS receives: len(c) plus
the stored entries of A_eq and A_ub.  A dense input with no zero entries,
such as every mela LP, counts (rows + 1) x variables, its dense size.  The
projector assembles its matrices sparse and states its own documented
envelope in dense entries, which lies inside this bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog as _scipy_linprog
from scipy.sparse import csr_array

from .errors import Infeasible, OutOfRange, SolverStall, Unbounded

LP_MAX_ENTRIES = 2 ** 25  # entries of c plus the stored entries of A_eq and A_ub
GAP_TOL = 1e-8  # certified optimality: duality_gap <= GAP_TOL * (1 + |objective|)


class ConstraintMatrix(csr_array):
    """A csr_array that numpy converts to its dense form.

    lp_solve hands it to HiGHS as the sparse matrix it is.  Code that reads
    constraint matrices through numpy, as perfbench's lp_solve counters do
    with np.asarray(A), gets the dense array, built on that request only.
    """

    def __array__(self, dtype=None, copy=None):
        return self.toarray().astype(dtype or float, copy=False)


def dense_entries(rows: int, cols: int) -> int:
    """Entries of the dense input (c plus `rows` constraint rows) over `cols` variables."""
    return (rows + 1) * cols


@dataclass
class LPResult:
    x: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ub: np.ndarray
    iterations: int
    duality_gap: float


def lp_solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> LPResult:
    """Solve min c.x s.t. A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    A_eq and A_ub may be dense or scipy sparse; either is converted by
    csr_array(A).  Solved by HiGHS interior point with crossover.  The guard
    counts what HiGHS receives, len(c) + nnz(A_eq) + nnz(A_ub) <=
    LP_MAX_ENTRIES (2^25), nnz being the stored entries of the csr_array
    form, so a dense input with no zero entries counts (rows + 1) x
    variables.  A larger LP is refused before HiGHS sees it, and HiGHS stops
    after 100,000 iterations.  Optimality is certified by the dual values:
    duality_gap <= GAP_TOL * (1 + |objective|) (GAP_TOL = 1e-8) in practice;
    callers that certify results re-check it.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A_eq = csr_array((0, n)) if A_eq is None else csr_array(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    A_ub = csr_array((0, n)) if A_ub is None else csr_array(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    if A_eq.ndim != 2 or A_ub.ndim != 2 or A_eq.shape[1] != n or A_ub.shape[1] != n:
        raise OutOfRange("constraint matrix width does not match len(c)")
    m_eq, m_ub = A_eq.shape[0], A_ub.shape[0]
    if b_eq.size != m_eq or b_ub.size != m_ub:
        raise OutOfRange("right-hand side length does not match its matrix")
    entries = n + A_eq.nnz + A_ub.nnz
    if entries > LP_MAX_ENTRIES:
        raise OutOfRange(
            f"LP of {m_eq + m_ub} x {n} with {entries} entries exceeds the "
            f"solver envelope of {LP_MAX_ENTRIES} entries"
        )

    res = _scipy_linprog(
        c,
        A_ub=A_ub if m_ub else None,
        b_ub=b_ub if m_ub else None,
        A_eq=A_eq if m_eq else None,
        b_eq=b_eq if m_eq else None,
        bounds=(0.0, None),
        method="highs-ipm",
        options={"maxiter": 100_000},
    )
    if res.status == 2:
        raise Infeasible("no feasible point satisfies the constraints")
    if res.status == 3:
        raise Unbounded("objective unbounded over the feasible set")
    if res.status != 0:
        raise SolverStall(f"LP backend gave up: {res.message}")

    x = np.asarray(res.x, dtype=float)
    duals_eq = (
        np.asarray(res.eqlin.marginals, dtype=float) if m_eq else np.zeros(0)
    )
    duals_ub = (
        np.asarray(res.ineqlin.marginals, dtype=float) if m_ub else np.zeros(0)
    )
    objective = float(c @ x)
    dual_obj = float(b_eq @ duals_eq + b_ub @ duals_ub)
    gap = abs(objective - dual_obj)
    iters = int(res.nit) + int(res.crossover_nit or 0)  # interior point + crossover
    return LPResult(x, objective, duals_eq, duals_ub, iters, gap)
