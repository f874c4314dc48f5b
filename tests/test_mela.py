"""Moment-measure LP: feasibility, certified bounds, round trips."""

from __future__ import annotations

import dataclasses

import pytest

from helson_lab.errors import OutOfRange
from helson_lab.linprog import GAP_TOL
from helson_lab.mela import (
    SignedGridMeasure,
    check_moments,
    mela_bound,
    required_k_max,
    solve_mela,
)

EPS_GRID = [0.5, 1e-1, 1e-2, 1e-3]


@pytest.fixture(scope="module")
def solved():
    return {eps: solve_mela(eps) for eps in EPS_GRID}


def test_measure_invariants():
    m = SignedGridMeasure.from_atoms([(0.5, 2.0), (0.25, -1.0)])
    assert m.total_variation == pytest.approx(3.0)
    with pytest.raises(OutOfRange):
        SignedGridMeasure.from_atoms([(0.0, 1.0)])
    with pytest.raises(OutOfRange):
        SignedGridMeasure(((0.3, 1.0), (0.3, 1.0)))


def test_check_moments_single_atom():
    m = SignedGridMeasure.from_atoms([(0.5, 2.0)])
    cert = check_moments(m, epsilon=0.3, k_max=10)
    assert cert.first_moment_error == pytest.approx(0.0, abs=1e-15)
    assert cert.max_odd_moment == pytest.approx(0.25)
    assert cert.tail_bound == pytest.approx(2.0 * 2.0 ** (-21))
    assert cert.valid

    cert_tight = check_moments(m, epsilon=0.1, k_max=10)
    assert not cert_tight.valid  # 0.25 > 0.1


def test_tail_bound_definition():
    m = SignedGridMeasure.from_atoms([(0.4, 1.0), (0.5, 1.5)])
    cert = check_moments(m, epsilon=0.3, k_max=4)
    assert cert.tail_bound == pytest.approx(2.0 ** (-9) * 2.5)


def test_required_k_max_auto_raise():
    k = required_k_max(1e-3, 1)
    assert 2.0 ** (-(2 * k + 1)) * mela_bound(1e-3) <= 1e-3 / 4.0
    assert 2.0 ** (-(2 * (k - 1) + 1)) * mela_bound(1e-3) > 1e-3 / 4.0


def test_solve_respects_mela_bound(solved):
    for eps, (measure, cert) in solved.items():
        slack = 1.01 if eps <= 1e-3 else 1.0
        assert cert.tv <= slack * mela_bound(eps) + 1e-6, f"eps={eps}"
        assert cert.valid or eps <= 1e-3, f"eps={eps}"


def test_solve_certificates_round_trip(solved):
    for eps, (measure, cert) in solved.items():
        recheck = check_moments(measure, eps, cert.k_max)
        assert recheck.tv == pytest.approx(cert.tv, abs=1e-12)
        assert recheck.max_odd_moment == pytest.approx(cert.max_odd_moment, abs=1e-12)
        assert abs(recheck.first_moment_error) <= 1e-8


def test_explicit_feasible_point_bound(solved):
    # single atom (0.5, 2) has first moment 1 and truncated odd moments
    # 2 * 0.5^{2k+1} <= 0.25 = eps/2 at eps = 0.5, so the LP optimum is <= 2
    assert solved[0.5][1].tv <= 2.0 + 1e-7


def test_tv_monotone_in_epsilon(solved):
    tvs = [solved[eps][1].tv for eps in EPS_GRID]
    for a, b in zip(tvs, tvs[1:]):
        assert b >= a - 1e-9  # smaller eps -> tighter feasible set


def test_grid_refinement_stability():
    for eps in (0.1, 0.01):
        _, c1 = solve_mela(eps, grid_size=240)
        _, c2 = solve_mela(eps, grid_size=480)
        assert abs(c2.tv - c1.tv) <= 0.01 * max(c1.tv, 1.0)


def test_epsilon_domain():
    with pytest.raises(OutOfRange):
        solve_mela(0.7)
    with pytest.raises(OutOfRange):
        solve_mela(0.1, grid_size=10)


def test_json_round_trip():
    measure, cert = solve_mela(0.25)
    back = SignedGridMeasure.from_json_dict(measure.to_json_dict())
    assert back == measure
    d = cert.to_json_dict()
    assert d["valid"] == cert.valid


def test_certificate_carries_lp_evidence(solved):
    for eps, (measure, cert) in solved.items():
        assert cert.lp_iterations > 0
        assert 0.0 <= cert.lp_duality_gap <= GAP_TOL * (1.0 + cert.tv)
        d = cert.to_json_dict()
        assert (d["lp_iterations"], d["lp_duality_gap"]) == (cert.lp_iterations, cert.lp_duality_gap)
        # a measure checked on its own carries no LP evidence, and needs none
        plain = check_moments(measure, eps, cert.k_max)
        assert plain.lp_iterations is None and plain.lp_duality_gap is None
        assert plain.valid == cert.valid
    measure, cert = solved[0.5]
    assert cert.valid
    loose = dataclasses.replace(cert, lp_duality_gap=2.0 * GAP_TOL * (1.0 + cert.tv))
    assert not loose.valid and loose.to_json_dict()["valid"] is False
