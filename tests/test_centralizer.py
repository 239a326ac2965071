import ast
import hashlib
import json
import random
import time
from fractions import Fraction
from functools import partial, reduce
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual import (GF, QQ, BadPrimeError, BorelCoordinates,
                     brute_force_group_check, build_chevalley, build_eT,
                     centralizer_ideal, compute_nG,
                     coproduct_on_generators, f_form, load_datum,
                     present_centralizer, preset_names,
                     principal_e, ring_from_name, specialize_eT,
                     truncated_dist)
from liedual import centralizer, commalg
from liedual.centralizer import (GENERATOR_NAMES, PeelingError,
                                 _generic_action, _lie_vector,
                                 _rename_into, _require_good_prime,
                                 _tensor_square, adjoint_action,
                                 monomials_of_degree, peel_unipotent,
                                 reduce_integral, standard_monomials)
from liedual.commalg import (DEFAULT_BUDGET, BudgetExceeded, PolyRing, Polynomial,
                             Substitution, groebner_basis, hilbert_series,
                             ideal_dimension, normal_form)
from liedual.intlinalg import LinSpan, identity, rank, transpose
from liedual.loop_oracle import basic_form, compare_report, omega_poincare
from liedual.root_datum import _cartan_D, _cartan_E

import reference
from reference import (NormalProducts, ad_matrix, factors_of, group_law_coordinates,
                       law_ring, map_into, mat_mul, mat_vec, peel_all_columns,
                       pure_powers, search_relations, verify_coassociativity)

N_G_TABLE = {
    "SL2": 1, "SL3": 1, "SL4": 1, "SL5": 1, "SL6": 1,
    "PGL2": 2, "PGL3": 3, "PGL4": 4, "PGL5": 5, "PGL6": 6,
    "Sp4": 1, "PSp4": 1, "Sp6": 1, "PSp6": 2,
    "Spin7": 1, "Spin8": 1, "SO8": 1, "PSO8": 2,
    "Spin10": 1, "SO10": 1, "PSO10": 4,
    "E6sc": 1, "PE6": 3, "E7sc": 1, "PE7": 2, "F4": 1, "G2": 1,
}


def test_nG_table():
    for name, n in N_G_TABLE.items():
        assert compute_nG(load_datum(name)) == n, name


def test_f_form_is_symmetric_and_integral_after_scaling():
    for name in N_G_TABLE:
        d = load_datum(name)
        F = f_form(d)
        n = compute_nG(d)
        for i, row in enumerate(F):
            for j, x in enumerate(row):
                assert x == F[j][i]
                assert (n * Fraction(x)).denominator == 1


def test_localization_matches_f():
    # f is minus the basic form, which is read off the symmetrizer
    for name in ["SL2", "PGL2", "SL3", "Sp4", "PSp4", "G2", "Spin7", "GL2"]:
        d = load_datum(name)
        assert f_form(d) == [[-x for x in row] for row in basic_form(d)], name


def test_bad_prime_refusal():
    with pytest.raises(BadPrimeError):
        present_centralizer(load_datum("G2"), GF(3))
    with pytest.raises(BadPrimeError):
        present_centralizer(load_datum("Sp4"), GF(2))
    with pytest.raises(BadPrimeError):
        present_centralizer(load_datum("Spin5"), GF(2))


def test_laurent_mode_dimension_jump_at_bad_prime():
    # at p dividing the length ratio, e stops being regular and the
    # centralizer dimension strictly exceeds the rank
    for name, p, expect_more_than in [("Spin5", 2, 2), ("G2", 3, 2)]:
        d = load_datum(name)
        basis = build_chevalley(d.dual_datum())
        coords = BorelCoordinates(basis, GF(p))
        e = principal_e(basis, d, GF(p))
        ci = centralizer_ideal(e, coords)
        assert ci.mode == "laurent"
        assert ideal_dimension(groebner_basis(ci.ideal.gens)) > expect_more_than


def test_unipotent_mode_at_good_prime():
    d = load_datum("G2")
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, GF(5))
    ci = centralizer_ideal(principal_e(basis, d, GF(5)), coords)
    assert ci.mode == "unipotent"
    assert ideal_dimension(groebner_basis(ci.ideal.gens)) == 2


def test_presentation_sl2_q():
    pres = present_centralizer(load_datum("SL2"), QQ)
    assert pres.generators == [("A", 2)]
    assert pres.relations == []
    assert pres.krull_dim == 1
    assert pres.zcenter.torsion_order == 1


def test_presentation_pgl2_scales_by_center_of_dual():
    pres = present_centralizer(load_datum("PGL2"), QQ)
    assert pres.zcenter.torsion_order == 2
    assert pres.hilbert.coeffs == [2 * c for c in
                                   present_centralizer(load_datum("SL2"),
                                                       QQ).hilbert.coeffs]


def test_presentation_matches_oracle_all_small_presets():
    for name in ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "PSp4", "G2"]:
        d = load_datum(name)
        oracle = omega_poincare(d, 30)
        for ring in [QQ, GF(5), GF(7)]:
            pres = present_centralizer(d, ring, truncation=30)
            assert pres.hilbert.coeffs == oracle.coeffs, (name, ring.name)
            assert pres.krull_dim == d.derived_rank


ORACLE_CASES = [
    ("F4", 5, []), ("E6sc", 7, []),                     # the frontier rung
    # torsion primes of the group
    ("Spin8", 2, ["A^2"]), ("SO8", 2, ["A^2"]), ("Spin10", 2, ["A^2"]),
    ("F4", 3, ["A^3"]), ("E7sc", 2, ["A^2", "B^2", "C^2"]), ("E7sc", 3, ["A^3"]),
    ("SL6", 2, []), ("SL6", 3, []), ("Sp6", 3, []), ("Spin7", 3, []),
]


@pytest.mark.parametrize("name,p,relations", ORACLE_CASES,
                         ids=[f"{n}-{p}-{len(r)}" for n, p, r in ORACLE_CASES])
def test_presentation_passes_the_oracle_at_the_frontier_and_torsion_primes(
        name, p, relations):
    d = load_datum(name)
    pres = present_centralizer(d, GF(p), truncation=40)
    assert compare_report(pres, d, 40)["pass"] is True
    assert [str(r) for r in pres.relations] == relations
    assert groebner_basis(pres.relations) == pres.relations


def test_presented_algebra_reproduces_its_own_series():
    # generators/relations data must present the computed quotient exactly
    from liedual.commalg import PolyRing, hilbert_series, parse_polynomial
    pres = present_centralizer(load_datum("G2"), GF(2))
    ring = PolyRing(GF(2), tuple(n for n, _ in pres.generators),
                    weights=tuple(deg for _, deg in pres.generators))
    rels = [parse_polynomial(ring, s) for s in pres.to_document()["relations"]]
    hs = hilbert_series(rels, ring=ring, truncation=40)
    assert hs.coeffs == pres.hilbert_unipotent.coeffs


def filtered_standard_monomials(ring, gb, D):
    """Reference enumerator: every monomial of degree D, minus those some
    leading monomial divides."""
    leads = [g.leading_monomial() for g in gb]
    return [m for m in monomials_of_degree(ring.weights, D)
            if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)]


@st.composite
def capped_rings(draw):
    """A weighted ring in 2-5 variables, caps (i, q) on some of them (a
    variable may have several), a degree."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ring = PolyRing(QQ, [f"x{i}" for i in range(n)], weights)
    caps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 4)),
                         max_size=5))
    return ring, caps, draw(st.integers(0, 14))


@settings(max_examples=200, deadline=None)
@given(capped_rings())
def test_standard_monomials_match_the_filter(case):
    ring, caps, D = case
    assert (standard_monomials(ring, caps, D)
            == filtered_standard_monomials(ring, pure_powers(ring, caps), D))


def full_enumeration_extraction(uring, gb, ring, truncation):
    """Reference extraction: every product normal-formed from scratch, one
    factor at a time, and every standard monomial tried as a generator."""
    gens, reps = [], []
    # reps grows as the generators are found; the table reads it when called
    normal_product = NormalProducts(reps, gb, uring.one())
    for D in range(2, truncation + 1, 2):
        sm = filtered_standard_monomials(uring, gb, D)
        if not sm:
            continue
        span = LinSpan(ring)
        for combo in monomials_of_degree([dg for _, dg in gens], D):
            span.add(normal_product(combo).terms)
        for m in sm:
            if span.add({m: ring.coerce(1)}):
                gens.append((GENERATOR_NAMES[len(gens)], D))
                reps.append(uring.monomial(m))
    gen_ring = PolyRing(ring, [n for n, _ in gens], [dg for _, dg in gens])
    rels = []
    for D in range(2, truncation + 1, 2):
        monos = monomials_of_degree(gen_ring.weights, D)
        old = LinSpan(ring)
        for rel in rels:
            rd = rel.total_degree()
            if rd <= D:
                for m in monomials_of_degree(gen_ring.weights, D - rd):
                    old.add((gen_ring.monomial(m) * rel).terms)
        span = LinSpan(ring)
        for m in monos:
            vec = {(1, mm): c for mm, c in normal_product(m).terms.items()}
            vec[(0, m)] = ring.coerce(1)
            span.add(vec)
        for _, row in sorted(span.rows.items()):
            if all(k[0] == 0 for k in row):
                relpoly = gen_ring.zero()
                for (_, m), c in row.items():
                    relpoly = relpoly + gen_ring.monomial(m, c)
                if old.add(relpoly.terms):
                    rels.append(relpoly)
    return gens, [str(r) for r in reps], [str(r) for r in rels]


# (name, ring) -> (truncation, relations)
EXTRACTION_CASES = {
    ("SL3", QQ): (40, []),
    ("G2", GF(2)): (40, ["A^2"]),
    ("Sp4", GF(5)): (40, []),
    ("SL4", GF(5)): (40, []),
    # u5 is standard but decomposable: u3^2 + 2*u5 lies in the ideal
    ("Sp6", GF(5)): (40, []),
    ("Spin7", QQ): (40, []),            # rational linear parts
    ("Spin8", GF(5)): (20, []),         # two generators in degree 6
    ("Spin8", GF(2)): (20, ["A^2"]),
    ("E6sc", GF(3)): (12, ["A^3"]),
    ("F4", GF(3)): (14, ["A^3"]),
}


@pytest.mark.parametrize("name,ring", list(EXTRACTION_CASES))
def test_extraction_matches_full_enumeration(name, ring):
    truncation, relations = EXTRACTION_CASES[name, ring]
    d = load_datum(name)
    pres = present_centralizer(d, ring, truncation)
    got = (pres.generators, [str(r) for r in pres.generator_reps],
           [str(r) for r in pres.relations])
    ideal = unipotent_ideal(d, ring)
    assert got == full_enumeration_extraction(ideal.ring, groebner_basis(ideal.gens),
                                              ring, truncation)
    assert groebner_basis(pres.relations) == pres.relations
    assert got[2] == relations


# sha256 of the JSON of the presentation document and the generator
# representatives (first 16 hex digits), pinned from the product-span
# extraction at commit 698769e: reading the generators off the linear parts
# of the ideal must pick the same representatives and relations
PRESENTATION_DIGESTS = {
    ("SL4", "Q"): "e71ebddc269e3fcb",
    ("SL4", "F5"): "3a53d75999478c2d",
    ("Sp6", "Q"): "48c670e75ac0855a",
    ("Sp6", "F5"): "97f7f80f90262b60",
    ("Spin7", "Q"): "48c670e75ac0855a",
    ("Spin7", "F5"): "97f7f80f90262b60",
    ("SL5", "Q"): "23fbf33026837044",
    ("SL5", "F7"): "742000c82fbab8fa",
    ("Spin8", "Q"): "c2685b287d4bf272",
    ("Spin8", "F5"): "d3254a6a736cc7a6",
    ("G2", "F2"): "ea742016ccb897c2",       # relation A^2
    ("Spin8", "F2"): "54e2c181cb80dc6b",    # relation A^2
    ("E6sc", "F2"): "236d1c5f568cd14b",     # relation A^2
    ("E6sc", "F3"): "9eaad0222c3398d6",     # relation A^3
    ("F4", "F3"): "d8aefbcf3d48f8bd",       # relation A^3
    ("F4", "F5"): "db659bc93bfabd5b",
    ("E6sc", "F7"): "35e4cc4d22c7659f",
}


@pytest.mark.parametrize("name,ring_name", sorted(PRESENTATION_DIGESTS))
def test_presentation_digest(name, ring_name):
    pres = present_centralizer(load_datum(name), ring_from_name(ring_name))
    doc = json.dumps([pres.to_document(), [str(r) for r in pres.generator_reps]],
                     sort_keys=True)
    digest = hashlib.sha256(doc.encode()).hexdigest()[:16]
    assert digest == PRESENTATION_DIGESTS[name, ring_name]


def hand_built_ideal(which):
    """A Groebner basis in k[x, y, z] with weights 2, 2, 4."""
    R = PolyRing(QQ, ["x", "y", "z"], [2, 2, 4])
    x, y, z = R.gens()
    gens = {"linear": [x * x + z, y ** 3], "zero": [], "unit": [R.one()],
            "two": [x ** 3, y ** 3]}
    return R, groebner_basis(gens[which])


def hand_built_relations(which, generators, reps, budget):
    """The reference kernel search on the quotient by hand_built_ideal(which),
    with the given generators and their representatives."""
    R, gb = hand_built_ideal(which)
    hs = hilbert_series(gb, ring=R, truncation=12, is_groebner=True)
    gen_ring = PolyRing(QQ, [n for n, _ in generators], [dg for _, dg in generators])
    product = NormalProducts([R.gen(r) for r in reps], gb, R.one())
    return gen_ring, search_relations(gen_ring, product, hs, budget)


@pytest.mark.parametrize("which,generators,reps,relations", [
    # z is standard (the lead of x^2 + z is x^2) but decomposable: the
    # linear part z of x^2 + z puts it in the span, so it is no generator
    ("linear", [("A", 2), ("B", 2)], ["x", "y"], ["B^3"]),
    ("zero", [("A", 2), ("B", 2), ("C", 4)], ["x", "y", "z"], []),
    ("unit", [], [], []),
    # two relations in one degree: the second is tested modulo the first
    ("two", [("A", 2), ("B", 2), ("C", 4)], ["x", "y", "z"], ["B^3", "A^3"]),
])
def test_extraction_on_hand_built_ideals(which, generators, reps, relations):
    R, gb = hand_built_ideal(which)
    assert (generators, reps, relations) == \
        full_enumeration_extraction(R, gb, QQ, 12)
    gen_ring, (rels, rel_gb, hs_rel) = hand_built_relations(
        which, generators, reps, DEFAULT_BUDGET)
    assert [str(r) for r in rels] == relations
    assert rel_gb == groebner_basis(rels)
    assert hs_rel == hilbert_series(rels, ring=gen_ring, truncation=12)


def test_presentation_with_two_generators_in_one_degree():
    # degree 6 holds two independent standard variables: both are generators
    pres = present_centralizer(load_datum("Spin8"), GF(5))
    assert [dg for _, dg in pres.generators] == [2, 6, 6, 10]
    assert pres.relations == []


def unipotent_ideal(d, ring):
    coords = BorelCoordinates(build_chevalley(d.dual_datum()), ring)
    return centralizer_ideal(principal_e(coords.basis, d, ring), coords).ideal


# every case of PRESENTATION_DIGESTS, five of them at torsion primes, plus
# G2/Q, SL6/F2 and Spin10/F7
SOLVE_CASES = sorted(list(PRESENTATION_DIGESTS)
                     + [("G2", "Q"), ("SL6", "F2"), ("Spin10", "F7")])


def spy_on_groebner(monkeypatch):
    """The generator lists handed to groebner_basis.  No module of liedual
    but commalg names it (test_no_module_but_commalg_names_the_division_engine),
    so every call, hilbert_series's too, goes through commalg's name."""
    calls = []

    def spy(gens, budget=DEFAULT_BUDGET):
        calls.append(list(gens))
        return groebner_basis(gens, budget)
    monkeypatch.setattr(commalg, "groebner_basis", spy)
    return calls


@pytest.mark.parametrize("name", ["groebner_basis", "normal_form", "DivisorIndex",
                                  "product"])
def test_no_module_but_commalg_names_the_division_engine(name):
    # Buchberger, and the normal form and divisor index it reduces by: the
    # presentation and the Hopf tables truncate by the caps instead.  And
    # the product loop: every other module multiplies through Polynomial or
    # a commalg.Substitution
    src = Path(centralizer.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "commalg.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name) and node.id == name
             or isinstance(node, ast.Attribute) and node.attr == name]
    assert found == []


@pytest.mark.parametrize("name,ring_name", SOLVE_CASES)
def test_triangular_solve_agrees_with_the_reduced_basis(name, ring_name, monkeypatch):
    # the reference enumerates every standard monomial of the reduced basis
    # up to the top generator degree; for E6 (degree 22) that would take
    # 10 s, so it stops at 16
    d, ring = load_datum(name), ring_from_name(ring_name)
    truncation = 16 if name == "E6sc" else 2 * max(d.exponents())
    ideal = unipotent_ideal(d, ring)
    gb = groebner_basis(ideal.gens)
    calls = spy_on_groebner(monkeypatch)
    pres = present_centralizer(d, ring, truncation)
    assert calls == []
    gens, reps, rels = full_enumeration_extraction(ideal.ring, gb, ring, truncation)
    assert (pres.generators, [str(r) for r in pres.generator_reps],
            [str(r) for r in pres.relations]) == (gens, reps, rels)
    hs_u = hilbert_series(gb, ring=ideal.ring, truncation=truncation,
                          is_groebner=True)
    hs = pres.hilbert_unipotent
    assert (hs.numer, hs.denom_degs, hs.coeffs) == \
        (hs_u.numer, hs_u.denom_degs, hs_u.coeffs)
    assert pres.hilbert == hs_u.scaled(pres.zcenter.torsion_order)
    assert pres.krull_dim == hs_u.dimension() == d.derived_rank
    if not rels:
        assert hs.denom_degs == tuple(sorted(2 * m for m in d.exponents()))


def test_a_rank_drop_hands_no_unipotent_ideal_to_groebner_basis(monkeypatch):
    # Spin8/F2: the leftover u4^2 (u4 is the free variable of degree 2) is
    # the relation A^2; the solve returns it as a pure power, and no basis
    # is computed
    calls = spy_on_groebner(monkeypatch)
    pres = present_centralizer(load_datum("Spin8"), GF(2))
    assert [str(r) for r in pres.relations] == ["A^2"]
    assert [(pres.free_ring.names[j], q) for j, q in pres.free_ring.caps] == [("u4", 2)]
    assert calls == []


# sha256 of the newline-joined images of the u variables at truncation 40,
# pinned at a6b68fe, where the solve multiplied out the terms its leftovers
# kill and the images were reduced modulo the leftovers' Groebner basis
# (14.5 s at F2 and 4.6 s at F3 on a 2-vCPU VM)
E8_IMAGE_DIGESTS = {
    2: "515a088ef57d2f302ecac6ce694467e61ccadcf0cf3ad7836f05826db7e21388",
    3: "afe1c34e201e63d19675d61dc5667655427f0fafeec133e6f93c18d6ac32ce5d",
}


# hopf_table_digest to degree 16, pinned at f871d05, where the peel
# multiplied out the whole law and truncated it afterwards (E8/F2 took
# 18.9 s of CPU, E8/F3 2.7 s, on a 2-vCPU VM)
E8_HOPF_TABLE_DIGESTS = {2: "727535604e8ee742", 3: "4c18ae61215e1c6c"}


def e8_passes_the_oracle(p, monkeypatch):
    """E8 over F_p at truncation 40: no Groebner basis, the oracle passes,
    the images and the Hopf tables to degree 16 are pinned, the
    presentation takes under 6 s of CPU and the tables under 3 s."""
    d = load_datum({"cartan": _cartan_E(8), "lattice": "simply_connected"})
    calls = spy_on_groebner(monkeypatch)
    start = time.process_time()
    pres = present_centralizer(d, GF(p), truncation=40)
    assert time.process_time() - start < 6
    assert compare_report(pres, d, 40)["pass"] is True
    text = "\n".join(map(str, pres.images))
    assert hashlib.sha256(text.encode()).hexdigest() == E8_IMAGE_DIGESTS[p]
    # the bound fails a peel that multiplies out the terms the caps kill
    start = time.process_time()
    assert hopf_table_digest(pres, 16) == E8_HOPF_TABLE_DIGESTS[p]
    assert time.process_time() - start < 3
    assert calls == []
    return [str(r) for r in pres.relations]


def test_e8_at_a_torsion_prime_passes_the_oracle(monkeypatch):
    # E8 is no preset, since tests that loop over every preset would run
    # Jacobi on its 248-dimensional algebra.  At F3 two layers drop rank,
    # and the leftovers give the relations A^3 and B^3 (degrees 6 and 18)
    assert e8_passes_the_oracle(3, monkeypatch) == ["A^3", "B^3"]


def test_e8_at_the_prime_2_passes_the_oracle(monkeypatch):
    # four layers drop rank: the leftovers u8^2, u15^2, u29^2 and u50^2
    # (degrees 4, 8, 16 and 28) give the relations on A, B, C and D
    assert e8_passes_the_oracle(2, monkeypatch) == ["A^2", "B^2", "C^2", "D^2"]


@pytest.mark.parametrize("name,ring_name", [("SL4", "Q"), ("Spin8", "F5"),
                                            ("G2", "F2"), ("E7sc", "F2"),
                                            ("E7sc", "F3"), ("F4", "F3")])
def test_the_leftovers_basis_is_the_only_groebner_basis(name, ring_name,
                                                        monkeypatch):
    # the leftovers are pure powers, their own reduced basis: no basis is
    # computed, with leftovers (F2, F3) or without
    calls = spy_on_groebner(monkeypatch)
    pres = present_centralizer(load_datum(name), ring_from_name(ring_name))
    assert bool(pres.free_ring.caps) == (ring_name in ("F2", "F3"))
    assert calls == []


# every preset/prime pair with leftovers at F2, F3, F5 and F7, Spin12/F2
# from a datum file, and E7sc/F2 below and at the degree 16 of its
# relation C^2, with their relations
BOREL_CASES = ([(n, 2, 40, ["A^2"]) for n in ("D4", "Spin8", "SO8", "SO8minus",
                                              "SO8plus", "PSO8", "Spin10", "SO10",
                                              "PSO10", "G2", "E6sc", "PE6")]
               + [(n, 2, 40, ["A^2", "B^2", "C^2"]) for n in ("E7sc", "PE7")]
               + [(n, 3, 40, ["A^3"]) for n in ("E6sc", "PE6", "E7sc", "PE7", "F4")]
               + [("Spin12", 2, 40, ["A^2", "B^2"]),
                  ("E7sc", 2, 10, ["A^2", "B^2"]),
                  ("E7sc", 2, 16, ["A^2", "B^2", "C^2"])])


@pytest.mark.parametrize("name,p,truncation,relations", BOREL_CASES)
def test_the_relations_read_off_the_leftovers_match_the_kernel_search(
        name, p, truncation, relations):
    d = load_datum({"cartan": _cartan_D(6), "lattice": "simply_connected"}
                   if name == "Spin12" else name)
    pres = present_centralizer(d, GF(p), truncation)
    assert [str(r) for r in pres.relations] == relations
    # the reference searches the kernel of the generator ring on the
    # presentation's own quotient, through its own product table
    variables = [rep.leading_monomial().index(1) for rep in pres.generator_reps]
    table = Substitution(pres.gen_ring, [pres.images[i].terms for i in variables],
                         pres.base, pres.free_ring.one().terms, pres.free_ring.caps)

    def product(m):
        return Polynomial(pres.free_ring, table(m))
    rels, rel_gb, hs_rel = search_relations(pres.gen_ring, product,
                                            pres.hilbert_unipotent, DEFAULT_BUDGET)
    assert rels == rel_gb == pres.relations
    hs = hilbert_series(pres.relations, ring=pres.gen_ring, truncation=truncation,
                        is_groebner=True)
    assert (hs.numer, hs.denom_degs) == (hs_rel.numer, hs_rel.denom_degs)
    assert hs.coeffs == pres.hilbert_unipotent.coeffs


def with_the_cap_u9_cubed(uring, solved):
    """The solve's output (images, free, caps, generators) with the cap
    (u9, 3) added."""
    images, free, caps, generators = solved
    return images, free, caps + [(uring.names.index("u9"), 3)], generators


@pytest.mark.parametrize("case,change,shown", [
    # an extra generator of the ideal reaches the solve's shape check;
    # u7^2 alone would be a relation B^2
    ("mixed", lambda u, gens, solve: solve(u, gens + [u.gen("u7") ** 2 * u.gen("u9")]),
     ["the rows of degree 14 without a linear part, u7^2*u9,"]),
    # the series of k[free]/(u4^2, u9^2 + u10^2) is that of the relations
    # A^2 and C^2, so only the shape check tells them apart
    ("binomial", lambda u, gens, solve: solve(u, gens + [u.gen("u9") ** 2
                                                         + u.gen("u10") ** 2]),
     ["the rows of degree 12 without a linear part, u9^2 + u10^2,"]),
    # on the solve's output, past its check: the cap (u9, 3), the leftover
    # u9^3 of a free variable, fails q = p^k
    ("cube", lambda u, gens, solve: with_the_cap_u9_cubed(u, solve(u, gens)),
     ["Spin8 over F_2: the leftovers' basis holds u9^3,"]),
])
def test_a_leftovers_basis_off_borels_shape_raises(case, change, shown,
                                                   monkeypatch):
    # Spin8/F2 has the free variables u4, u7, u9, u10, u12 (degrees 2, 4,
    # 6, 6, 10) and the cap (u4, 2); each case changes the solve's input
    # or its output
    solve = centralizer.triangular_solve
    monkeypatch.setattr(centralizer, "triangular_solve", lambda uring, gens, budget:
                        change(uring, gens, partial(solve, budget=budget)))
    with pytest.raises(AssertionError, match="Borel's theorem") as info:
        present_centralizer(load_datum("Spin8"), GF(2))
    assert all(term in str(info.value) for term in shown), case


@pytest.mark.parametrize("change,message", [
    # u4, whose square is the leftover, is no generator any more
    (lambda chosen: chosen[1:], r"holds u4\^2, not a p\^k-th power of a generator"),
    (lambda chosen: chosen[:-1], "does not reproduce"),        # u12 missed
    (lambda chosen: [0] + chosen, "does not reproduce"),       # u1 added
])
def test_a_generator_added_or_missed_raises(change, message, monkeypatch):
    # Spin8/F2: the solve's generators are u4, u7, u9, u10, u12 and u1 is
    # a pivot
    solve = centralizer.triangular_solve

    def perturbed(uring, gens, budget):
        images, free, caps, generators = solve(uring, gens, budget)
        return images, free, caps, change(generators)
    monkeypatch.setattr(centralizer, "triangular_solve", perturbed)
    with pytest.raises(AssertionError, match=message):
        present_centralizer(load_datum("Spin8"), GF(2))


def test_the_solve_lists_generators_up_to_the_truncation_only():
    pres = present_centralizer(load_datum("F4"), GF(5), truncation=10)
    assert pres.generators == [("A", 2), ("B", 10)]
    assert pres.hilbert.closed_form_str() == \
        "1/((1 - t^2)*(1 - t^10)*(1 - t^14)*(1 - t^22))"
    assert pres.krull_dim == 4


@pytest.mark.parametrize("name,ring", [("SL4", QQ), ("Sp6", GF(5)), ("G2", QQ),
                                       ("Spin8", GF(2)), ("F4", GF(3))])
def test_the_point_check_catches_each_perturbed_pivot(name, ring, monkeypatch):
    # Spin8/F2 and F4/F3 have leftovers, so the point is 0 on their
    # free variable of degree 2
    solve = centralizer.triangular_solve
    ideal = unipotent_ideal(load_datum(name), ring)
    images, free, caps, _ = solve(ideal.ring, ideal.gens, DEFAULT_BUDGET)
    assert bool(caps) == (ring.characteristic in (2, 3))
    pivots = [i for i in range(len(images)) if i not in free]
    assert pivots
    for i in pivots:
        def perturbed(uring, gens, budget, i=i):
            images, free, caps, generators = solve(uring, gens, budget)
            origin = (0,) * uring.nvars
            images[i][origin] = ring.add(images[i].get(origin, ring.coerce(0)),
                                         ring.coerce(1))
            return images, free, caps, generators
        monkeypatch.setattr(centralizer, "triangular_solve", perturbed)
        with pytest.raises(AssertionError, match="do not centralize e"):
            present_centralizer(load_datum(name), ring)


def test_the_solve_spends_the_budget_on_products():
    # SL3's one generator is linear; G2's substitutions form 8 products.  At
    # the torsion primes the caps truncate the products as they are formed;
    # those counts were measured at c84fa65
    for name, ring_name, products in [("SL3", "Q", 0), ("G2", "Q", 8),
                                      ("Spin8", "F2", 26), ("F4", "F3", 438),
                                      ("E7sc", "F2", 5355)]:
        ideal = unipotent_ideal(load_datum(name), ring_from_name(ring_name))
        assert centralizer.triangular_solve(ideal.ring, ideal.gens, products) is not None
        if products:
            with pytest.raises(BudgetExceeded, match="triangular solve: product budget"):
                centralizer.triangular_solve(ideal.ring, ideal.gens, products - 1)


# sha256 of the `liedual centralizer` stdout, and the PRESENTATION_DIGESTS
# digest with the generator representatives, pinned from the Buchberger
# path at 5a55b8a, where the CLI took 6.5 s (E7sc/F5) and 15.8 s (E7sc/Q);
# each case below, two triangular solves, takes 0.2-0.4 s on a 2-vCPU VM
FRONTIER_DIGESTS = {
    ("E7sc", "F5"): ("4da330d428ec5d3a06649b86c3e6779335dfff973d2c512885a6be0299aa32be",
                     "261fca9eb77be9f8"),
    ("E7sc", "Q"): ("4c03e4266be262c13e3098c51ee346c4faf27262a089271c48843cf0924f42d2",
                    "e2652fcef65a1c60"),
}


@pytest.mark.parametrize("name,ring_name", sorted(FRONTIER_DIGESTS))
def test_frontier_documents_are_pinned(name, ring_name, capsys):
    from liedual.cli import main
    assert main(["centralizer", "--preset", name, "--ring", ring_name]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    pres = present_centralizer(load_datum(name), ring_from_name(ring_name))
    doc = json.dumps([pres.to_document(), [str(r) for r in pres.generator_reps]],
                     sort_keys=True)
    assert (stdout, hashlib.sha256(doc.encode()).hexdigest()[:16]) == \
        FRONTIER_DIGESTS[name, ring_name]


def rank_verdict(basis, elem):
    """(dim ker ad x, whether x is regular semisimple) from ranks over QQ.

    rank(ad x) = rank((ad x)^2) says the eigenvalue 0 of ad x has no
    nilpotent part; with a kernel of dimension rank, 0 then has multiplicity
    exactly rank, i.e. the t^rank coefficient of the charpoly is nonzero."""
    A = [[QQ.coerce(c) for c in row] for row in ad_matrix(basis, elem)]
    kernel_dim = basis.dim - rank(A)
    return kernel_dim, (kernel_dim == basis.n
                        and rank(A) == rank(mat_mul(A, A)))


def test_specialization_off_and_on_the_sl3_walls():
    eT = build_eT(load_datum("SL3"))
    # alpha(h) = -3, -3, -6 on the positive roots: all nonzero, although two
    # eigenvalues of ad coincide
    _, report = specialize_eT(eT, [3, 3])
    assert report["regular_semisimple"] and report["kernel_dim"] == 2
    # alpha_2(h) = 0 at [1, 2] and (alpha_1 + alpha_2)(h) = 0 at [1, -1]
    for s in ([1, 2], [1, -1]):
        _, report = specialize_eT(eT, s)
        assert report["discriminant"] == 0
        assert not report["regular_semisimple"]


@pytest.mark.parametrize("name,s", [("SL2", [1, 2, 3]), ("SL3", [1])])
def test_specialization_refuses_a_point_of_the_wrong_length(name, s):
    # SL2 used to ignore the extra coordinates, SL3 to raise IndexError
    eT = build_eT(load_datum(name))
    with pytest.raises(ValueError, match=f"s has {len(s)} coordinates, not "
                                         f"the rank {eT.datum.rank}"):
        specialize_eT(eT, s)


@pytest.mark.parametrize("name,points", [
    ("SL3", [[3, 3], [1, 2], [2, -5]]),
    ("Sp4", [[1, 1], [2, -1], [3, 0]]),
    ("G2", [[1, 1], [2, -3], [1, 0]]),
])
def test_discriminant_is_the_rank_coefficient_of_the_ad_charpoly(name, points):
    sympy = pytest.importorskip("sympy")
    d = load_datum(name)
    eT = build_eT(d)
    t = sympy.Symbol("t")
    for s in points:
        elem, report = specialize_eT(eT, s)
        char = sympy.Matrix(ad_matrix(eT.basis, elem)).charpoly(t).as_expr()
        coeff = sympy.Poly(char, t).coeff_monomial(t ** d.rank)
        assert report["discriminant"] == Fraction(int(coeff.p), int(coeff.q)), s


@pytest.mark.parametrize("names,seed,bound,count", [
    pytest.param((name,), name, 3, 10, id=name)
    for name in ["SL2", "PGL2", "GL2", "SL3", "Sp4", "Spin5", "G2"]
] + [pytest.param(("SL2", "SL3", "Spin5"), 11, 6, 12, id="SL2-SL3-Spin5-seed11")])
def test_regular_semisimple_iff_rank_kernel_and_ad_squared_keeps_rank(
        names, seed, bound, count):
    # specialize_eT's discriminant verdict against rank_verdict at `count`
    # points per preset, coordinates in -bound..bound, one stream of draws
    rng = random.Random(seed)
    for name in names:
        d = load_datum(name)
        eT = build_eT(d)
        for _ in range(count):
            s = [rng.randrange(-bound, bound + 1) for _ in range(d.rank)]
            elem, report = specialize_eT(eT, s)
            verdict = rank_verdict(eT.basis, elem)
            assert (report["kernel_dim"], report["regular_semisimple"]) == verdict, s


def exp_adjoint_matrix(basis, root_coeffs, u, ring):
    """Reference: the matrix 1 + sum_k u^k ad(x_root)^k / k! of
    Ad(exp(u x_root)), densified from the divided-power columns."""
    out = identity(basis.dim, ring)
    for j, col in enumerate(basis.divided_powers(root_coeffs)):
        for k, i, c in col:
            out[i][j] = ring.add(out[i][j], ring.mul(ring.coerce(c), u ** k))
    return out


def divided_power_layers(basis, root_coeffs):
    """The columns of each ad(x_root)^k / k!, k = 1, 2, ..., split off the
    divided-power columns: layer k - 1 holds the (i, c) of each column."""
    cols = basis.divided_powers(root_coeffs)
    top = max(k for col in cols for k, _, _ in col)
    return [[tuple((i, c) for kk, i, c in col if kk == k) for col in cols]
            for k in range(1, top + 1)]


@pytest.mark.parametrize("name", ["SL3", "G2", "Sp4", "F4"])
def test_divided_power_layers_match_dense_powers_of_ad(name):
    # ad(x_a)^k / k! from the dense matrix of ad(x_a) over QQ, built from
    # bracket_keys, against the column layers; the first vanishing power
    # must match too
    basis = build_chevalley(load_datum(name))
    dim = basis.dim
    keys = basis.basis_keys()
    for rt in basis.roots:
        A = [[QQ.coerce(0)] * dim for _ in range(dim)]
        for j, key in enumerate(keys):
            for out, c in basis.bracket_keys(("x", rt.coeffs), key).items():
                A[basis.key_index(out)][j] = QQ.coerce(c)
        layers = divided_power_layers(basis, rt.coeffs)
        power = identity(dim, QQ)
        for k, layer in enumerate(layers, start=1):
            power = mat_mul(A, power, QQ)
            dense = [[QQ.coerce(0)] * dim for _ in range(dim)]
            for j, col in enumerate(layer):
                for i, c in col:
                    assert isinstance(c, int) and c
                    dense[i][j] = QQ.coerce(c)
            assert dense == [[a / factorial(k) for a in row] for row in power], \
                (rt.coeffs, k)
        assert layers and not any(map(any, mat_mul(A, power, QQ))), rt.coeffs


def unipotent_matrix(coords, ring, uvals):
    """Reference: Ad(U) as the product of the matrices of its exp factors."""
    return reduce(partial(mat_mul, ring=ring),
                  (exp_adjoint_matrix(coords.basis, rt.coeffs, u, ring)
                   for rt, u in zip(coords.pos, uvals)))


@pytest.mark.parametrize("name,ring", [
    ("SL3", QQ), ("G2", GF(2)), ("Sp4", GF(5)), ("Spin7", QQ), ("F4", GF(5))])
def test_adjoint_action_matches_matrix_products(name, ring):
    d = load_datum(name)
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, ring)
    e = principal_e(basis, d, ring)
    # the u ring of the unipotent ideal and the z, zi, u ring of the Laurent one
    for R in (coords.uring, coords.bring):
        target = _lie_vector(e, R)
        # the dense matrices of the exp factors, applied right to left
        expect = target
        for rt, nm in reversed(list(zip(coords.pos, coords.u_names))):
            factor = exp_adjoint_matrix(basis, rt.coeffs, R.gen(nm), R)
            expect = mat_vec(factor, expect, R)
        assert adjoint_action(basis, factors_of(coords, R), target, R) == expect
        # the term kernel of the generic point, too
        assert [Polynomial(R, w) for w in _generic_action(coords, R, target)] == expect


@pytest.mark.parametrize("name", preset_names())
def test_generic_action_matches_adjoint_action(name):
    # the term kernel against the generic action on polynomial u, on the u
    # ring of the unipotent ideal and the z, zi, u ring of the Laurent one
    d = load_datum(name)
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, GF(7))
    e = principal_e(basis, d, GF(7))
    for R in (coords.uring, coords.bring):
        target = _lie_vector(e, R)
        expect = adjoint_action(basis, factors_of(coords, R), target, R)
        assert [Polynomial(R, w) for w in _generic_action(coords, R, target)] == expect


def test_generic_action_refuses_a_target_with_u():
    coords = BorelCoordinates(build_chevalley(load_datum("SL3")), QQ)
    target = [coords.uring.zero()] * coords.basis.dim
    target[-1] = coords.uring.gen("u2")
    with pytest.raises(ValueError, match="involves a u variable"):
        _generic_action(coords, coords.uring, target)


# (mode, number of generators, sha256 of the newline-joined generators) of
# centralizer_ideal, recorded before the ideal was built on exponent dicts
PINNED_IDEALS = {
    ("SL4", "Q"): ("unipotent", 3,
                   "971cf8585509fc6f5651f6315eb8b4fddb34bda1df17d639042c5719c1483a73"),
    ("Spin7", "Q"): ("unipotent", 6,
                     "feaa3be83d40a64a608eb027fc7aa42b453f835d83f27c7e7be442e27735c0ae"),
    ("SL5", "F7"): ("unipotent", 6,
                    "82f9513ced03e53967eb806ecf7d21440da657de3a124cbf7ccf8befabfb3678"),
    ("F4", "F5"): ("unipotent", 20,
                   "4b22d566af6d96903584cab1ec9eb868123892088aa024e041152fb50060b94e"),
    ("E6sc", "F7"): ("unipotent", 30,
                     "e9b5c2c7cf1a052c2f10624dec2c552ef329cdfa7968a92aeef38cfff4698591"),
    ("SO7", "F2"): ("laurent", 9,
                    "0e8b07ac18997da2f0ca21fab7792bc9bf44fd7fe2372ff5a0eb460a12eda5b6"),
    ("G2", "F3"): ("laurent", 5,
                   "eb1a0a18b915bc9440c836a8451669c3420387c6505bd7541823727e2b30344e"),
    ("Sp4", "F2"): ("laurent", 4,
                    "06046d196a18f1ffcad6ad14758d81d2a2f88196030a69b03489277e0c1bab62"),
}


@pytest.mark.parametrize("name,ring_name", sorted(PINNED_IDEALS))
def test_centralizer_ideal_is_pinned(name, ring_name):
    d = load_datum(name)
    ring = ring_from_name(ring_name)
    basis = build_chevalley(d.dual_datum())
    cid = centralizer_ideal(principal_e(basis, d, ring), BorelCoordinates(basis, ring))
    text = "\n".join(map(str, cid.ideal.gens))
    assert (cid.mode, len(cid.ideal.gens),
            hashlib.sha256(text.encode()).hexdigest()) == PINNED_IDEALS[name, ring_name]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["SL3", "Sp4", "G2"]), st.sampled_from([5, 7]), st.data())
def test_peeling_recovers_the_unipotent_coordinates(name, p, data):
    ring = GF(p)
    coords = BorelCoordinates(build_chevalley(load_datum(name).dual_datum()), ring)
    npos = len(coords.pos)
    u = data.draw(st.lists(st.integers(0, p - 1), min_size=npos, max_size=npos))
    factors = list(zip(coords.pos, u))
    # the matrix peeling reads: Ad(U(u)) applied to the standard basis
    cols = [adjoint_action(coords.basis, factors, c, ring)
            for c in identity(coords.basis.dim, ring)]
    assert cols == transpose(unipotent_matrix(coords, ring, u))
    # the peel reads the F_p values lifted to ints over Q, then reduces mod p
    assert reduce_integral(peel_unipotent(coords, factors, QQ), ring) == u


@pytest.mark.parametrize("name", ["SL3", "G2", "Sp6", "Spin7", "Spin8"])
def test_group_law_equals_the_all_columns_peel(name):
    # one column over Q, divided by heights and reduced, against every column
    # peeled in the law ring over the coefficients, torsion primes included
    d = load_datum(name)
    basis = build_chevalley(d.dual_datum())
    for ring in (QQ, GF(2), GF(3), GF(5)):
        try:
            _require_good_prime(d, ring)
        except BadPrimeError:
            continue
        coords = BorelCoordinates(basis, ring)
        ring2 = law_ring(coords, ("ga", "gb"))
        factors = factors_of(coords, ring2, "ga") + factors_of(coords, ring2, "gb")
        assert group_law_coordinates(coords) == \
            (ring2, peel_all_columns(coords, factors, ring2)), (name, ring)


def test_a_non_integral_coordinate_does_not_reduce():
    coords = BorelCoordinates(build_chevalley(load_datum("SL3").dual_datum()), QQ)
    values = peel_unipotent(coords, [(coords.pos[0], Fraction(1, 2))], QQ)
    assert values == [Fraction(1, 2), 0, 0]
    with pytest.raises(PeelingError, match="not integral"):
        reduce_integral(values, GF(5))
    ring = law_ring(coords, ("ga", "gb"))
    qring = PolyRing(QQ, ring.names, ring.weights)
    with pytest.raises(PeelingError, match="not integral"):
        reduce_integral([qring.gen("ga1").scale(Fraction(1, 2))], ring)


def test_a_misread_coordinate_fails_the_closing_check():
    # dividing by height(alpha), the pairing with rho^vee rather than
    # 2rho^vee, doubles each read, and the column misses 2rho^vee
    coords = BorelCoordinates(build_chevalley(load_datum("G2").dual_datum()), QQ)
    coords.u_weights = [rt.height for rt in coords.pos]
    with pytest.raises(PeelingError, match="canonical unipotent"):
        peel_unipotent(coords, list(zip(coords.pos, range(1, 7))), QQ)


def test_group_points_brute_force():
    # GL2 has a central torus; SO5 is good only at odd primes
    cases = [(name, p) for name in ["SL2", "PGL2", "SL3", "GL2"] for p in (2, 3, 5)]
    for name, p in cases + [("SO5", 3)]:
        r = brute_force_group_check(load_datum(name), p)
        assert r["pass"], (name, p, r)
        assert r["closed"] and r["inverses"] and r["commutative"]


def test_group_point_counts():
    counts = {p: brute_force_group_check(load_datum("SL2"), p)["count"]
              for p in (2, 3, 5)}
    assert counts == {2: 2, 3: 3, 5: 5}
    assert brute_force_group_check(load_datum("SL3"), 3)["count"] == 9


def test_coassociativity():
    # G2 and Spin8 at their torsion prime 2, where the law is reduced mod 2
    for name, ring in [("SL2", QQ), ("SL3", QQ), ("Sp4", QQ),
                       ("G2", GF(2)), ("Spin8", GF(2))]:
        d = load_datum(name)
        basis = build_chevalley(d.dual_datum())
        coords = BorelCoordinates(basis, ring)
        assert verify_coassociativity(coords), (name, ring)


def test_coassociativity_detects_a_perturbed_law(monkeypatch):
    law_of = reference.group_law_coordinates

    def perturbed(coords):
        ring, law = law_of(coords)
        return ring, law[:-1] + [law[-1] + ring.gen("ga1") * ring.gen("gb1") ** 2]
    monkeypatch.setattr(reference, "group_law_coordinates", perturbed)
    coords = BorelCoordinates(build_chevalley(load_datum("SL3").dual_datum()), QQ)
    assert not verify_coassociativity(coords)


def test_truncated_dist_detects_a_perturbed_law(monkeypatch):
    # the tables peel U(a) U(b) at the images in copies a and b; adding the
    # square of the first copy-a variable (nonzero in the quotient) to every
    # peeled value breaks the counit
    peel = centralizer.peel_unipotent

    def perturbed(coords, factors, ring):
        return [u + ring.gen(ring.names[0]) ** 2 for u in peel(coords, factors, ring)]
    pres = present_centralizer(load_datum("SL3"), QQ)
    monkeypatch.setattr(centralizer, "peel_unipotent", perturbed)
    with pytest.raises(AssertionError, match="counit fails"):
        truncated_dist(pres, 4)


@pytest.mark.parametrize("name,ring_name,truncation,N", [
    # SL3/Q at truncation 2 lacks the generator B of degree 4, so its
    # degree-4 basis would be A^2 alone, not A^2 and B
    ("SL3", "Q", 2, 4),
    # E7sc/F2 at truncation 10 lacks the generator of degree 14 and the
    # relation C^2 of degree 16
    ("E7sc", "F2", 10, 16)])
def test_truncated_dist_refuses_a_degree_above_the_truncation(name, ring_name,
                                                              truncation, N):
    pres = present_centralizer(load_datum(name), ring_from_name(ring_name),
                               truncation)
    with pytest.raises(ValueError, match=f"degree {N} exceeds the "
                                         f"presentation's truncation {truncation}"):
        truncated_dist(pres, N)
    # at and below the truncation the tables stay available
    assert truncated_dist(pres, truncation)["basis_by_degree"][2] == [
        (1,) + (0,) * (len(pres.generators) - 1)]
    assert coproduct_on_generators(pres)


def test_group_law_counit():
    # substituting zero for the second factor returns the first factor
    d = load_datum("SL3")
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, QQ)
    ring, law = group_law_coordinates(coords)
    right_at_zero = {n: ring.gen(n) if n.startswith("ga") else ring.zero()
                     for n in ring.names}
    for i, poly in enumerate(law):
        restricted = map_into(poly, ring, right_at_zero)
        assert str(restricted) == f"ga{i + 1}"


def test_coproduct_is_algebra_like_on_sl2():
    pres = present_centralizer(load_datum("SL2"), QQ)
    cop = coproduct_on_generators(pres)
    (aname,) = [n for n, _ in pres.generators]
    terms = cop[aname]
    # primitive generator: A -> A(x)1 + 1(x)A
    assert terms == {((1,), (0,)): 1, ((0,), (1,)): 1}


def test_coproduct_without_generators_is_empty():
    # truncated below SL2's one generator of degree 2
    pres = present_centralizer(load_datum("SL2"), QQ, truncation=1)
    assert pres.generators == []
    assert coproduct_on_generators(pres) == {}


def test_truncated_dist_divided_powers():
    from math import comb
    pres = present_centralizer(load_datum("SL2"), QQ)
    dp = truncated_dist(pres, 20)["dual_product"]
    for m in range(6):
        for n in range(6):
            assert dp((m,), (n,)) == {(m + n,): comb(m + n, n)}


def test_truncated_dist_mod2_square_vanishes():
    pres = present_centralizer(load_datum("SL2"), GF(2))
    dp = truncated_dist(pres, 8)["dual_product"]
    assert dp((1,), (1,)) == {}


@pytest.mark.parametrize("name,ring", [
    ("SL3", QQ), ("Sp4", GF(5)), ("G2", GF(2)), ("G2", GF(5)), ("Spin8", GF(2))])
def test_tensor_square_basis_is_the_union_of_the_copies(name, ring):
    pres = present_centralizer(load_datum(name), ring)
    tensor_ring = _tensor_square(pres)[0]
    # the leftovers: u2^2 on G2/F2, u4^2 on Spin8/F2, else none
    powers = pure_powers(pres.free_ring, pres.free_ring.caps)
    assert len(powers) == (ring.characteristic == 2)
    # the reference runs Buchberger on the union of the two renamed copies:
    # the reduced basis is unique, and the tables' caps must spell it
    union = [_rename_into(g, tensor_ring, copy) for copy in (0, 1) for g in powers]
    assert sorted(map(str, pure_powers(tensor_ring, tensor_ring.caps))) == \
        sorted(map(str, groebner_basis(union)))


@pytest.mark.parametrize("name,ring", [("SL3", QQ), ("G2", GF(2))])
def test_the_hopf_tables_hand_no_unipotent_ideal_to_groebner_basis(name, ring,
                                                                   monkeypatch):
    # they are read from two copies of k[free]/(leftovers), truncated by
    # the presentation's caps in each copy: no basis is computed, of the
    # unipotent ideal or of anything else
    pres = present_centralizer(load_datum(name), ring)
    calls = spy_on_groebner(monkeypatch)
    truncated_dist(pres, 12)
    coproduct_on_generators(pres)
    assert calls == []


# (preset, ring, N) -> sha256 (first 16 hex digits) of the repr of the
# truncated_dist basis, its dual product on every pair of basis monomials
# and coproduct_on_generators, pinned at commit b979a8d, where the products
# were formed one factor at a time and expressed through per-row combos
HOPF_TABLE_DIGESTS = {
    ("SL2", "Q", 20): "f82852c4cc3b68a0",
    ("SL2", "F2", 8): "91b3461440ab324b",
    ("SL3", "Q", 12): "e816cc05748c34f9",
    ("SL3", "F3", 12): "a42ce6db85ac5271",
    ("Sp4", "F5", 12): "0aaa979cb7d41fa2",
    ("G2", "F2", 12): "bde6666080a66a6e",     # relation A^2
    ("G2", "F5", 12): "718d4ec166f55785",
    # pinned at 85d4c48, from the Groebner basis of the unipotent ideal
    ("G2", "Q", 12): "cb0560669a3f834b",
    ("Spin8", "F2", 8): "ea57d8ea56d0e027",  # rank 4, the leftover u4^2
    # pinned at e9e7266, where the law was peeled from every column (3.2 s)
    ("Spin10", "Q", 10): "96dd958a85e8517d",
    # first reached by the one-column law over Q: 0.5 s on a 2-vCPU VM
    ("F4", "F3", 8): "4e585e07003f4dbc",
    # pinned at 84a2395, where the universal law was peeled in 2N variables
    # and substituted (about 2 s each); every generator, to the top degree
    ("E6sc", "Q", 22): "4a00311e07de26bf",
    ("E6sc", "F2", 22): "f0c593b1766d4b45",
    # first reached by peeling U(a) U(b) at the images, where the universal
    # law needs 126 variables; under 3 s each on a 2-vCPU VM
    ("E7sc", "F2", 34): "a7873cdebfa68596",
    ("E7sc", "F3", 34): "62a4f0e7d78dd43f",
}


def hopf_table_digest(pres, N):
    """The first 16 hex digits of the sha256 of the repr of the
    truncated_dist basis to degree N, its dual product on every pair of
    basis monomials and coproduct_on_generators."""
    dist = truncated_dist(pres, N)
    dp = dist["dual_product"]
    basis = [m for ms in dist["basis_by_degree"].values() for m in ms]
    # the digests hash the repr of Fraction coefficients over Q, and QQ
    # keeps integral values as ints: each Q coefficient is written as a
    # Fraction, so equal values hash to the pinned text
    as_pinned = Fraction if pres.base == QQ else (lambda c: c)

    def items(combo):
        return sorted((k, as_pinned(c)) for k, c in combo.items())
    text = repr([dist["basis_by_degree"],
                 [(a, b, items(dp(a, b))) for a in basis for b in basis],
                 sorted((g, items(c))
                        for g, c in coproduct_on_generators(pres).items())])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,ring_name,N", sorted(HOPF_TABLE_DIGESTS))
def test_hopf_tables_are_pinned(name, ring_name, N):
    pres = present_centralizer(load_datum(name), ring_from_name(ring_name))
    assert hopf_table_digest(pres, N) == HOPF_TABLE_DIGESTS[name, ring_name, N]


CROSS_ROUTE_CASES = (
    [(name, "Q") for name in ["SL3", "G2", "Sp6", "Spin7", "Spin8", "SL5", "F4", "E6sc"]]
    + [("G2", "F2"), ("G2", "F5"), ("Sp6", "F3"), ("SL4", "F3"), ("Spin7", "F3"),
       ("Spin8", "F2"), ("Spin8", "F3"), ("F4", "F3"), ("E6sc", "F2")])


@pytest.mark.parametrize("name,ring_name", CROSS_ROUTE_CASES)
def test_the_tables_law_is_the_universal_law_at_the_images(name, ring_name):
    # the tables peel U(a) U(b) at the images of the u variables in copies a
    # and b and truncates by their caps; the reference peels the universal
    # law in 2N variables, substitutes those images and takes the normal
    # form modulo the Groebner basis of both copies' leftovers
    pres = present_centralizer(load_datum(name), ring_from_name(ring_name))
    ring, _, _, law = _tensor_square(pres)
    universal_ring, universal = group_law_coordinates(pres.coords)
    values = dict(zip(universal_ring.names,
                      [_rename_into(image, ring, copy)
                       for copy in (0, 1) for image in pres.images]))
    gb = groebner_basis([_rename_into(g, ring, copy) for copy in (0, 1)
                         for g in pure_powers(pres.free_ring, pres.free_ring.caps)])
    variables = [rep.leading_monomial().index(1) for rep in pres.generator_reps]
    assert [Polynomial(ring, terms) for terms in law.images] == \
        [normal_form(map_into(universal[i], ring, values), gb) for i in variables]


def test_the_e7_tables_stay_in_two_copies_of_the_free_ring(monkeypatch):
    # the universal law would need a ring of 2 * 63 variables; the tables
    # build none larger than two copies of the free variables
    pres = present_centralizer(load_datum("E7sc"), GF(2))
    sizes = []
    init = PolyRing.__init__

    def spy(self, coeff_ring, names, weights=None, caps=()):
        init(self, coeff_ring, names, weights, caps)
        sizes.append(self.nvars)
    monkeypatch.setattr(PolyRing, "__init__", spy)
    truncated_dist(pres, 8)
    coproduct_on_generators(pres)
    assert sizes and max(sizes) == 2 * pres.free_ring.nvars == 20


@pytest.mark.parametrize("name", ["SL4", "Spin7", "G2"])
def test_no_integral_fraction_reaches_the_q_pipeline(name):
    # QQ keeps integral values as ints; arithmetic done past the ring's
    # operations could bring back Fraction(n, 1)
    d = load_datum(name)
    pres = present_centralizer(d, QQ)
    cid = centralizer_ideal(principal_e(pres.coords.basis, d, QQ), pres.coords)
    dist = truncated_dist(pres, 8)
    basis = [m for ms in dist["basis_by_degree"].values() for m in ms]
    found = {
        "ideal": [c for g in cid.ideal.gens for c in g.terms.values()],
        "images": [c for image in pres.images for c in image.terms.values()],
        "dual_product": [c for a in basis for b in basis
                         for c in dist["dual_product"](a, b).values()],
        "coproduct": [c for combo in coproduct_on_generators(pres).values()
                      for c in combo.values()],
        "discriminant": [specialize_eT(build_eT(d), s)[1]["discriminant"]
                         for s in ([0] * d.rank, list(range(1, d.rank + 1)))],
    }
    for where, coeffs in found.items():
        assert coeffs, where
        assert not [c for c in coeffs
                    if type(c) is Fraction and c.denominator == 1], where
        assert all(type(c) in (int, Fraction) for c in coeffs), where


def test_truncated_dist_with_relations_is_commutative_and_associative():
    # G2 over F2 has the relation A^2, so the relation basis is not empty
    pres = present_centralizer(load_datum("G2"), GF(2))
    assert pres.relations
    dist = truncated_dist(pres, 12)
    dp, R = dist["dual_product"], pres.base
    basis = [m for ms in dist["basis_by_degree"].values() for m in ms]

    def times(x, y):
        """Product of two linear combinations of basis elements."""
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for m, c in dp(a, b).items():
                    out[m] = R.add(out.get(m, R.coerce(0)), R.mul(R.mul(ca, cb), c))
        return {m: c for m, c in out.items() if c}

    one = R.coerce(1)
    for a in basis:
        for b in basis:
            assert dp(a, b) == dp(b, a)
            for c in basis:
                left = times(times({a: one}, {b: one}), {c: one})
                assert left == times({a: one}, times({b: one}, {c: one}))
