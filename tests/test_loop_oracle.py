from fractions import Fraction

import pytest

from liedual import (QQ, WeightedRep, adjoint_rep, compare_report, degree_dV,
                     fixed_point_chern_weight, load_datum, omega_poincare,
                     present_centralizer)
from liedual.centralizer import localization_restriction
from liedual.loop_oracle import PureTorusError


def brute_series_coeffs(degrees, N):
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for d in degrees:
        new = [0] * (N + 1)
        for k in range(N + 1):
            j = k
            while j >= 0:
                new[k] += coeffs[j]
                j -= d
        coeffs = new
    return coeffs


def test_omega_poincare_simply_connected():
    for name in ["SL2", "SL3", "Sp4", "G2", "Spin7"]:
        d = load_datum(name)
        hs = omega_poincare(d, 30)
        ref = brute_series_coeffs([2 * m for m in d.exponents()], 30)
        assert hs.coeffs == ref, name


def test_omega_poincare_component_scaling():
    d = load_datum("PGL3")
    hs = omega_poincare(d, 20)
    base = omega_poincare(load_datum("SL3"), 20)
    assert hs.coeffs == [3 * c for c in base.coeffs]


def test_omega_poincare_central_torus_adds_no_factor():
    hs = omega_poincare(load_datum("GL2"), 10)
    assert hs.coeffs == brute_series_coeffs([2], 10)


def test_pure_torus_rejected():
    from liedual import RootDatumError

    d = load_datum("SL2")
    with pytest.raises(RootDatumError):
        type(d)("T1", (), ((1,),), central_rank=1)

    class TorusStub:
        derived_rank = 0

    with pytest.raises(PureTorusError):
        omega_poincare(TorusStub(), 10)


def test_weighted_rep_validation():
    with pytest.raises(ValueError):
        WeightedRep([((1, 0), 0)])
    with pytest.raises(ValueError):
        WeightedRep([((1, 0), 1)], self_dual=True)
    WeightedRep([((1, 0), 1), ((-1, 0), 1)], self_dual=True)


def test_adjoint_rep_dimension():
    for name, dim in [("SL2", 3), ("SL3", 8), ("G2", 14)]:
        rep = adjoint_rep(load_datum(name))
        assert sum(m for _, m in rep.weights) == dim


def test_degree_dV_adjoint_identity():
    for name in ["SL2", "PGL2", "SL3", "Sp4", "Spin7", "Sp6", "Spin8",
                 "F4", "G2", "SL5"]:
        d = load_datum(name)
        theta = d.highest_root().coroot
        assert degree_dV(d, adjoint_rep(d)) == d.killing_form(theta, theta) // 2


def test_degree_dV_rejects_odd_sum():
    d = load_datum("SL3")
    # <alpha_1, theta> = 1, so a single alpha_1 weight gives an odd total
    with pytest.raises(ValueError):
        degree_dV(d, WeightedRep([((1, 0), 1)]))


def test_chern_weight_proportional_to_localization():
    for name in ["SL2", "PGL2", "SL3", "Sp4", "G2"]:
        d = load_datum(name)
        rep = adjoint_rep(d)
        dV = degree_dV(d, rep)
        for lam in d.cochar_basis:
            ch = fixed_point_chern_weight(d, rep, lam)
            loc = localization_restriction(d, lam)
            assert [Fraction(x, dV) for x in ch] == [Fraction(x) for x in loc]


def test_compare_report_pass_and_fields():
    d = load_datum("SL3")
    pres = present_centralizer(d, QQ)
    r = compare_report(pres, d, 30)
    assert r["pass"] and r["series_ok"] and r["dimension_ok"] and r["zcenter_ok"]
    assert r["first_difference"] is None
    assert r["series_equal_to"] == 30


def test_compare_report_detects_mismatch():
    d = load_datum("SL3")
    pres = present_centralizer(d, QQ)
    wrong = compare_report(pres, load_datum("PGL3"), 20)
    assert not wrong["pass"]
    assert wrong["first_difference"] == 0
