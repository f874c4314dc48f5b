"""Linear programming front end.

Solves   min c.x   s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0
(callers split free variables into differences of nonnegative ones).

Thin wrapper over scipy's HiGHS interface.  Every LP is solved by the
HiGHS interior-point method with crossover (method="highs-ipm"), so the
solution is a vertex with basic duals, and the same input gives the same
bytes on every run.  The wrapper pins down the conventions the rest of the
package relies on: a single dense calling form (handed to HiGHS as a sparse
matrix, so zero entries cost nothing past the input itself), duals reported
as sensitivities dz/db for both row groups, an explicit duality gap, and
this package's error taxonomy (Infeasible / Unbounded / SolverStall)
instead of status codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog as _scipy_linprog
from scipy.sparse import csr_array

from .errors import Infeasible, OutOfRange, SolverStall, Unbounded

LP_MAX_ENTRIES = 2 ** 25  # dense envelope: entries of c, A_eq and A_ub together
GAP_TOL = 1e-8  # certified optimality: duality_gap <= GAP_TOL * (1 + |objective|)


def dense_entries(rows: int, cols: int) -> int:
    """Entries of the dense input (c plus `rows` constraint rows) over `cols` variables."""
    return (rows + 1) * cols


@dataclass
class LPResult:
    status: str
    x: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ub: np.ndarray
    iterations: int
    duality_gap: float


def lp_solve(
    c,
    A_eq=None,
    b_eq=None,
    A_ub=None,
    b_ub=None,
    max_iter: int = 100_000,
) -> LPResult:
    """Solve min c.x s.t. A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    Solved by HiGHS interior point with crossover.  The guard is sized by
    what the dense input costs: (rows + 1) x variables <= LP_MAX_ENTRIES
    (2^25, 256 MiB of float64), refused before HiGHS sees it.  Optimality
    is certified by the dual values: duality_gap <= GAP_TOL * (1 + |objective|)
    (GAP_TOL = 1e-8) in practice; callers that certify results re-check it.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    m_eq, m_ub = A_eq.shape[0], A_ub.shape[0]
    if A_eq.shape != (m_eq, n) or A_ub.shape != (m_ub, n):
        raise OutOfRange("constraint matrix width does not match len(c)")
    if b_eq.size != m_eq or b_ub.size != m_ub:
        raise OutOfRange("right-hand side length does not match its matrix")
    if dense_entries(m_eq + m_ub, n) > LP_MAX_ENTRIES:
        raise OutOfRange(
            f"LP size {m_eq + m_ub} x {n} exceeds the dense solver envelope "
            f"of {LP_MAX_ENTRIES} entries"
        )

    res = _scipy_linprog(
        c,
        A_ub=csr_array(A_ub) if m_ub else None,
        b_ub=b_ub if m_ub else None,
        A_eq=csr_array(A_eq) if m_eq else None,
        b_eq=b_eq if m_eq else None,
        bounds=(0.0, None),
        method="highs-ipm",
        options={"maxiter": int(max_iter)},
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
    return LPResult("optimal", x, objective, duals_eq, duals_ub, iters, gap)
