"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion. All series comparisons are exact integer equality to t^40.
"""

import random
import time
from math import comb

from liedual import (GF, QQ, BorelCoordinates, HilbertSeries,
                     brute_force_group_check, build_chevalley, build_eT,
                     centralizer_ideal, compute_nG, load_datum,
                     omega_poincare, present_centralizer, principal_e,
                     specialize_eT, truncated_dist)
from liedual.centralizer import f_form
from liedual.commalg import (PolyRing, groebner_basis, hilbert_series,
                             ideal_dimension)
from liedual.intlinalg import rank
from liedual.loop_oracle import basic_form, pi0_order

from reference import ad_matrix, mat_mul

GOOD_PRIMES = (2, 3, 5, 7, 11, 13)


def good_primes(d):
    return [p for p in GOOD_PRIMES if d.length_ratio() % p != 0]


def test_criterion_01_g2_mod2_series_matches_truncated_polynomial_ring():
    start = time.monotonic()
    pres = present_centralizer(load_datum("G2"), GF(2), truncation=40)
    ring = PolyRing(GF(2), ("u", "v", "w"), weights=(2, 4, 10))
    u = ring.gen("u")
    ref = hilbert_series([u * u], ring=ring, truncation=40)
    assert pres.hilbert.coeffs == ref.coeffs
    assert time.monotonic() - start < 120


def test_criterion_02_series_equals_component_scaled_exponent_product():
    for name in ["SL2", "PGL2", "SL3", "Sp4", "Spin5", "G2"]:
        d = load_datum(name)
        z = d.component_group().torsion_order
        ref = HilbertSeries([z], [2 * m for m in d.exponents()], 40)
        rings = [QQ] + [GF(p) for p in good_primes(d)]
        for ring in rings:
            pres = present_centralizer(d, ring, truncation=40)
            assert pres.hilbert.coeffs == ref.coeffs, (name, ring.name)


def test_criterion_03_flat_over_good_primes_and_jumps_at_bad_ones():
    # identical series across all good primes
    for name in ["SL2", "Sp4", "G2"]:
        d = load_datum(name)
        series = [present_centralizer(d, GF(p), truncation=40).hilbert.coeffs
                  for p in good_primes(d)]
        assert all(s == series[0] for s in series), name
    # at p | length ratio, e is no longer regular: dimension exceeds the rank
    for name, p in [("Spin5", 2), ("G2", 3)]:
        d = load_datum(name)
        basis = build_chevalley(d.dual_datum())
        coords = BorelCoordinates(basis, GF(p))
        ci = centralizer_ideal(principal_e(basis, d, GF(p)), coords)
        dim = ideal_dimension(groebner_basis(ci.ideal.gens))
        assert dim > d.derived_rank, (name, p)


def test_criterion_04_integrality_constant_table():
    table = {"PGL2": 2, "PGL3": 3, "PGL4": 4, "PSp6": 2, "PSO8": 2,
             "PSO10": 4, "PE6": 3, "PE7": 2,
             "SL2": 1, "SL3": 1, "Sp4": 1, "Sp6": 1, "Spin7": 1,
             "Spin8": 1, "F4": 1, "G2": 1}
    assert len(table) >= 12
    for name, n in table.items():
        assert compute_nG(load_datum(name)) == n, name


# dual Coxeter numbers: A_n n+1, B_n 2n-1, C_n n+1, D_n 2n-2, F4 9, G2 4
DUAL_COXETER = {"SL2": 2, "PGL2": 2, "SL3": 3, "PGL3": 3, "SL4": 4, "SL5": 5,
                "Sp4": 3, "PSp4": 3, "Sp6": 4, "PSp6": 4, "Spin5": 3,
                "Spin7": 5, "Spin8": 6, "SO8": 6, "PSO8": 6, "F4": 9, "G2": 4,
                "GL2": 2}


def test_criterion_05_adjoint_degree_is_half_highest_coroot_norm():
    # d_Ad = (theta, theta)_Kil / 2 = 2 h^vee, with h^vee both read off
    # <2 rho, theta^vee> = 2 h^vee - 2 and taken from the table
    for name, h_vee in DUAL_COXETER.items():
        d = load_datum(name)
        theta = d.highest_root().coroot
        d_ad = d.killing_form(theta, theta) // 2
        assert d_ad == d.two_rho_degree(theta) + 2 == 2 * h_vee, name


def test_criterion_06_equivariant_form_consistency():
    # f_form is a Killing sum over the roots; the basic form it must be
    # minus of is read off the symmetrized Cartan matrix
    for name in ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "PSp4", "Spin5",
                 "Sp6", "PSp6", "Spin7", "Spin8", "SO8", "PSO8", "SL4",
                 "PGL4", "F4", "G2", "GL2", "E6sc", "PE6", "E7sc", "PE7"]:
        d = load_datum(name)
        assert f_form(d) == [[-x for x in row] for row in basic_form(d)], name


def test_criterion_07_generic_specialization_is_regular_semisimple():
    # independent criterion: x is regular semisimple exactly when
    # dim ker(ad x) = rank and rank(ad x) = rank((ad x)^2)
    rng = random.Random(2026)
    for name in ["SL2", "SL3", "Spin5"]:
        d = load_datum(name)
        eT = build_eT(d)
        for _ in range(20):
            s = [rng.randrange(-9, 10) for _ in range(d.rank)]
            elem, report = specialize_eT(eT, s)
            A = [[QQ.coerce(c) for c in row] for row in ad_matrix(eT.basis, elem)]
            assert report["kernel_dim"] == eT.basis.dim - rank(A), s
            expect = (report["kernel_dim"] == d.rank
                      and rank(A) == rank(mat_mul(A, A)))
            assert report["regular_semisimple"] == expect, s


def test_criterion_08_group_points_close_under_the_law():
    for name in ["SL2", "SL3"]:
        d = load_datum(name)
        for p in (2, 3, 5):
            r = brute_force_group_check(d, p)
            assert r["pass"], (name, p, r)
    for p in (2, 3, 5):
        assert brute_force_group_check(load_datum("SL2"), p)["count"] == p


def test_criterion_09_divided_power_dual_structure():
    pres = present_centralizer(load_datum("SL2"), QQ)
    dp = truncated_dist(pres, 20)["dual_product"]
    for m in range(6):
        for n in range(6 - m):
            if m + n <= 10:
                assert dp((m,), (n,)) == {(m + n,): comb(m + n, n)}
    pres2 = present_centralizer(load_datum("SL2"), GF(2))
    dp2 = truncated_dist(pres2, 8)["dual_product"]
    assert dp2((1,), (1,)) == {}


def test_criterion_10_component_group_matches_center_of_dual():
    from liedual import preset_names
    for name in preset_names():
        d = load_datum(name)
        dual = d.dual_datum()
        order = d.component_group().torsion_order
        assert order == pi0_order(d) == dual.center().torsion_order, name
        # and the identification is an involution
        back = dual.dual_datum()
        assert back.cartan == d.cartan and back.cochar_basis == d.cochar_basis
