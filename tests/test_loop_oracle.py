import pytest

from liedual import (QQ, build_chevalley, compare_report, load_datum,
                     omega_poincare, present_centralizer)


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


def test_adjoint_dimension_is_rank_times_coxeter_number_plus_one():
    # dim g = r (h + 1), h = 1 + height of the highest root
    for name, dim in [("SL2", 3), ("SL3", 8), ("G2", 14)]:
        d = load_datum(name)
        assert len(d.roots()) + d.rank == dim
        assert d.rank * (d.highest_root().height + 2) == dim
        assert build_chevalley(d.dual_datum()).dim == dim


def test_adjoint_degree_is_twice_the_dual_coxeter_number():
    # d_Ad = (theta, theta)_Kil / 2 against 2 h^vee = <2 rho, theta^vee> + 2
    for name in ["SL2", "PGL2", "SL3", "Sp4", "Spin7", "Sp6", "Spin8",
                 "F4", "G2", "SL5"]:
        d = load_datum(name)
        theta = d.highest_root().coroot
        assert d.killing_form(theta, theta) // 2 == d.two_rho_degree(theta) + 2


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
