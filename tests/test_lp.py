"""Simplex solver: trivial programs, planted optima, duality, failure modes."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_array

from helson_lab import linprog
from helson_lab.errors import Infeasible, OutOfRange, Unbounded
from helson_lab.linprog import dense_entries, lp_solve


def test_min_x_with_lower_bound():
    # min x s.t. x >= 3, written as -x <= -3
    res = lp_solve(c=[1.0], A_ub=[[-1.0]], b_ub=[-3.0])
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


def test_split_variable_pair():
    # min u+v s.t. u-v = 1 -> (u,v) = (1,0)
    res = lp_solve(c=[1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[1.0])
    assert res.objective == pytest.approx(1.0, abs=1e-10)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-10)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    with pytest.raises(Infeasible):
        lp_solve(c=[1.0], A_ub=[[1.0]], b_ub=[-1.0])


def test_unbounded_detected():
    # min -x with x only bounded below
    with pytest.raises(Unbounded):
        lp_solve(c=[-1.0], A_ub=[[-1.0]], b_ub=[0.0])


def test_redundant_rows_handled():
    res = lp_solve(
        c=[1.0, 2.0],
        A_eq=[[1.0, 1.0], [2.0, 2.0]],  # second row redundant
        b_eq=[1.0, 2.0],
    )
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)


def _planted_lp(rng: np.random.Generator, m: int, n: int):
    """Random equality-form LP with a known unique optimum.

    Choose a basis B, positive x_B, and duals y; costs are set so reduced
    costs vanish on B and are strictly positive off B.
    """
    A = rng.normal(size=(m, n))
    basis = rng.choice(n, size=m, replace=False)
    xB = rng.uniform(0.5, 2.0, size=m)
    x = np.zeros(n)
    x[basis] = xB
    b = A @ x
    y = rng.normal(size=m)
    c = A.T @ y
    mask = np.ones(n, dtype=bool)
    mask[basis] = False
    c[mask] += rng.uniform(0.1, 1.0, size=n - m)
    return c, A, b, x, float(c @ x)


@pytest.mark.parametrize("seed", range(10))
def test_planted_optimum(seed):
    rng = np.random.default_rng(100 + seed)
    m, n = 12, 30
    c, A, b, x_star, obj_star = _planted_lp(rng, m, n)
    res = lp_solve(c, A_eq=A, b_eq=b)
    assert res.objective == pytest.approx(obj_star, abs=1e-7)
    assert np.allclose(res.x, x_star, atol=1e-7)
    assert res.duality_gap <= 1e-8 * (1 + abs(res.objective))


@pytest.mark.parametrize("seed", range(5))
def test_planted_with_inequalities(seed):
    rng = np.random.default_rng(500 + seed)
    m, n = 8, 20
    c, A, b, x_star, obj_star = _planted_lp(rng, m, n)
    # slack inequalities that are loose at the optimum do not move it
    G = rng.normal(size=(5, n))
    h = G @ x_star + rng.uniform(0.5, 1.0, size=5)
    res = lp_solve(c, A_eq=A, b_eq=b, A_ub=G, b_ub=h)
    assert res.objective == pytest.approx(obj_star, abs=1e-7)
    assert res.duality_gap <= 1e-8 * (1 + abs(res.objective))


def test_duals_certify_optimum():
    rng = np.random.default_rng(42)
    c, A, b, x_star, obj_star = _planted_lp(rng, 10, 25)
    res = lp_solve(c, A_eq=A, b_eq=b)
    # dual feasibility: A^T y <= c
    assert np.all(A.T @ res.duals_eq <= c + 1e-7)
    assert float(b @ res.duals_eq) == pytest.approx(res.objective, abs=1e-7)


def test_degenerate_program_terminates():
    # many ties in the ratio test
    n = 12
    A = np.vstack([np.eye(n), np.ones((1, n))])
    b = np.concatenate([np.zeros(n), [0.0]])
    c = -np.ones(n)
    res = lp_solve(c, A_ub=A, b_ub=b)
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_guard_counts_dense_entries(monkeypatch):
    # len(c) + nnz(A_eq) + nnz(A_ub): a dense input with no zero entries
    # counts (rows + 1) x columns, so 9 rows over 10 columns fit 100 entries
    # and 10 rows are refused, as when the guard counted dense size
    monkeypatch.setattr(linprog, "LP_MAX_ENTRIES", 100)
    c = np.ones(10)
    res = lp_solve(c, A_eq=np.ones((4, 10)), b_eq=np.ones(4), A_ub=np.ones((5, 10)), b_ub=np.ones(5))
    assert dense_entries(9, 10) == 100 and res.objective == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(OutOfRange, match="10 x 10 with 110 entries exceeds the solver envelope of 100"):
        lp_solve(c, A_eq=np.ones((5, 10)), b_eq=np.ones(5), A_ub=np.ones((5, 10)), b_ub=np.ones(5))


@pytest.mark.parametrize("form", [np.asarray, csr_array])
def test_guard_counts_stored_nonzeros(monkeypatch, form):
    # 54 rows over 10 columns, dense size 550: counted by their 10 + 40 + 50
    # nonzeros, dense or sparse, and refused at the 101st
    monkeypatch.setattr(linprog, "LP_MAX_ENTRIES", 100)
    c = np.ones(10)
    A_eq, b_eq = np.ones((4, 10)), np.ones(4)
    A_ub = np.tile(np.eye(10), (5, 1))
    res = lp_solve(c, A_eq=form(A_eq), b_eq=b_eq, A_ub=form(A_ub), b_ub=np.ones(50))
    assert dense_entries(54, 10) == 550 and res.objective == pytest.approx(1.0, abs=1e-9)
    A_ub = np.vstack([A_ub, np.eye(1, 10)])
    with pytest.raises(OutOfRange, match="55 x 10 with 101 entries"):
        lp_solve(c, A_eq=form(A_eq), b_eq=b_eq, A_ub=form(A_ub), b_ub=np.ones(51))


def test_interior_point_result_is_a_reproducible_vertex():
    rng = np.random.default_rng(7)
    c, A, b, x_star, _ = _planted_lp(rng, 12, 30)
    a, b2 = lp_solve(c, A_eq=A, b_eq=b), lp_solve(c, A_eq=A, b_eq=b)
    assert a.x.tobytes() == b2.x.tobytes() and a.iterations == b2.iterations > 0
    # crossover ends on the planted basis: exact zeros off it
    assert np.count_nonzero(a.x) == 12 and np.array_equal(a.x != 0, x_star != 0)


def test_dense_and_sparse_input_give_the_same_bytes():
    # both forms reach HiGHS as csr_array(A): the same matrix, the same solution
    rng = np.random.default_rng(3)
    c, A, b, _, _ = _planted_lp(rng, 10, 24)
    G = np.where(rng.random((6, 24)) < 0.3, rng.normal(size=(6, 24)), 0.0)
    h = np.abs(G) @ np.full(24, 10.0) + 1.0
    dense = lp_solve(c, A_eq=A, b_eq=b, A_ub=G, b_ub=h)
    sparse = lp_solve(c, A_eq=csr_array(A), b_eq=b, A_ub=csr_array(G), b_ub=h)
    assert sparse.x.tobytes() == dense.x.tobytes()
    assert sparse.duals_eq.tobytes() == dense.duals_eq.tobytes()
    assert sparse.duals_ub.tobytes() == dense.duals_ub.tobytes()
    assert sparse.iterations == dense.iterations > 0
    with pytest.raises(OutOfRange, match="width"):
        lp_solve(c, A_eq=csr_array(A[:, :-1]), b_eq=b)
