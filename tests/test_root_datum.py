import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual import (GF, FiniteAbelianGroup, RootDatum, RootDatumError,
                     load_datum, present_centralizer, preset_names)
from liedual.intlinalg import determinant, is_integral, solve_left_rows
from liedual.loop_oracle import compare_report
from liedual.root_datum import (Root, _cartan_A, _cartan_B, _cartan_C,
                                _cartan_G2, _datum_with_extra_coweights)

ROOT_COUNTS = {
    "SL2": 2, "PGL2": 2, "SL3": 6, "PGL3": 6, "Sp4": 8, "Spin5": 8,
    "G2": 12, "SL4": 12, "Spin7": 18, "Sp6": 18, "Spin8": 24, "F4": 48,
    "E6sc": 72, "E7sc": 126,
}

EXPONENTS = {
    "SL2": [1], "SL3": [1, 2], "SL4": [1, 2, 3], "Sp4": [1, 3],
    "Spin5": [1, 3], "G2": [1, 5], "Spin7": [1, 3, 5], "Sp6": [1, 3, 5],
    "Spin8": [1, 3, 3, 5], "F4": [1, 5, 7, 11], "E6sc": [1, 4, 5, 7, 8, 11],
    "E7sc": [1, 5, 7, 9, 11, 13, 17],
}

LENGTH_RATIOS = {
    "SL2": 1, "SL3": 1, "SL4": 1, "Spin8": 1, "E6sc": 1, "E7sc": 1,
    "Sp4": 2, "Spin5": 2, "Spin7": 2, "Sp6": 2, "F4": 2, "G2": 3,
}

CENTER_ORDERS = {
    "SL2": 2, "PGL2": 1, "SL3": 3, "PGL3": 1, "Sp4": 2, "PSp4": 1,
    "SL4": 4, "Spin5": 2, "Spin7": 2, "Sp6": 2, "PSp6": 1, "Spin8": 4,
    "SO8": 2, "PSO8": 1, "Spin10": 4, "SO10": 2, "PSO10": 1,
    "E6sc": 3, "PE6": 1, "E7sc": 2, "PE7": 1, "F4": 1, "G2": 1,
}


def test_root_counts():
    for name, count in ROOT_COUNTS.items():
        assert len(load_datum(name).roots()) == count, name


def test_positive_roots_height_sorted():
    for name in ["SL3", "Sp4", "G2", "Spin7"]:
        pos = load_datum(name).positive_roots()
        heights = [rt.height for rt in pos]
        assert heights == sorted(heights)
        assert all(rt.height >= 1 for rt in pos)


def test_exponents():
    for name, exps in EXPONENTS.items():
        d = load_datum(name)
        assert d.exponents() == exps, name
        # sum of exponents counts the positive roots
        assert sum(d.exponents()) == len(d.positive_roots())


def test_length_ratio():
    for name, ratio in LENGTH_RATIOS.items():
        assert load_datum(name).length_ratio() == ratio, name


def test_symmetrizer_symmetrizes():
    for name in preset_names():
        d = load_datum(name)
        C = d.cartan
        s = d.symmetrizer()
        n = len(C)
        assert all(x >= 1 for x in s)
        for i in range(n):
            for j in range(n):
                assert s[i] * C[i][j] == s[j] * C[j][i]


def test_simple_coroots_consistent_with_roots():
    for name in ["SL3", "Sp4", "G2"]:
        d = load_datum(name)
        pos = {rt.coeffs: rt for rt in d.positive_roots()}
        r = d.derived_rank
        for i in range(r):
            unit = tuple(int(j == i) for j in range(r))
            assert list(pos[unit].coroot) == list(d.simple_coroots[i])


def test_killing_form_values():
    d = load_datum("SL2")
    a = d.simple_coroots[0]
    assert d.killing_form(a, a) == 8
    d3 = load_datum("SL3")
    a1, a2 = d3.simple_coroots
    assert d3.killing_form(a1, a1) == 12
    assert d3.killing_form(a1, a2) == -6


def test_two_rho_degree_of_highest_coroot():
    d = load_datum("G2")
    assert max(d.two_rho_degree(rt.coroot) for rt in d.positive_roots()) == 10
    d2 = load_datum("SL3")
    assert max(d2.two_rho_degree(rt.coroot) for rt in d2.positive_roots()) == 4


def test_component_group_and_center():
    assert load_datum("SL2").component_group().torsion_order == 1
    assert load_datum("PGL2").component_group().torsion_order == 2
    assert load_datum("PSO8").component_group().torsion_order == 4
    for name, z in CENTER_ORDERS.items():
        assert load_datum(name).center().torsion_order == z, name
    assert load_datum("Spin8").center().invariant_factors == (2, 2)
    assert load_datum("SL4").center().invariant_factors == (4,)


def test_central_torus_gives_free_rank():
    d = load_datum("GL2")
    pi0 = d.component_group()
    assert pi0.invariant_factors.count(0) == 1
    assert pi0.torsion_order == 1


def test_dual_is_involution():
    for name in preset_names():
        d = load_datum(name)
        dd = d.dual_datum().dual_datum()
        assert dd.cartan == d.cartan
        assert dd.cochar_basis == d.cochar_basis


def test_dual_and_pi0_are_kept_on_the_datum_without_a_link_back():
    for name in preset_names():
        d = load_datum(name)
        dual = d.dual_datum()
        assert d.dual_datum() is dual
        back = dual.dual_datum()
        assert back is not d
        assert ((back.name, back.cartan, back.cochar_basis, back.central_rank)
                == (d.name, d.cartan, d.cochar_basis, d.central_rank)), name
        assert d.component_group() is d.component_group()
        # a fresh copy of the datum, with nothing cached, agrees
        fresh = RootDatum(d.name, d.cartan, d.cochar_basis, d.central_rank)
        assert fresh.dual_datum() == dual and fresh.dual_datum() is not dual
        assert fresh.component_group() == d.component_group()


def test_a_replaced_datum_caches_nothing_from_the_original():
    # SL3 is simply connected; the identity basis of its coweight lattice
    # makes it PGL3, whose cocharacters mod coroots are Z/3
    d = load_datum("SL3")
    assert str(d.component_group()) == "1"
    adjoint = RootDatum(d.name, d.cartan, ((1, 0), (0, 1)), d.central_rank)
    assert str(adjoint.component_group()) == "Z/3"
    assert adjoint.simple_coroot_h() != d.simple_coroot_h()
    assert str(d.component_group()) == "1"
    assert d.simple_coroot_h() == ((1, 0), (0, 1))


def test_positive_roots_are_kept_on_the_datum():
    for name in ["SL2", "SL3", "G2", "GL2", "F4"]:
        d = load_datum(name)
        pos = d.positive_roots()
        assert d.positive_roots() is pos
        assert pos == tuple(rt for rt in d.roots() if rt.positive)


def test_values_are_immutable_and_compare_by_their_fields():
    d = load_datum("G2")
    rt = d.roots()[0]
    group = d.component_group()     # fills d's cache, as do roots() and the dual
    d.dual_datum()
    for value, name in [(group, "invariant_factors"), (rt, "height"),
                        (d, "name"), (d, "_cache")]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    fresh = RootDatum(d.name, d.cartan, d.cochar_basis, d.central_rank)
    assert "roots" in d._cache and "roots" not in fresh._cache
    twins = [(group, FiniteAbelianGroup(group.invariant_factors)),
             (rt, Root(rt.coeffs, rt.vector, rt.coroot, rt.height)),
             (d, fresh)]
    for a, b in twins:
        assert a is not b and a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
    assert d != RootDatum(d.name + "'", d.cartan, d.cochar_basis, d.central_rank)
    assert rt != Root(rt.coeffs, rt.vector, rt.coroot, -rt.height)
    assert d != d.name and group != group.invariant_factors
    assert repr(group) == "FiniteAbelianGroup(invariant_factors=())"
    assert repr(RootDatum("SL2", ((2,),), ((2,),))) == (
        "RootDatum(name='SL2', cartan=((2,),), cochar_basis=((2,),), central_rank=0)")


def test_dual_swaps_center_and_pi0():
    for name in preset_names():
        d = load_datum(name)
        dual = d.dual_datum()
        assert d.component_group().torsion_order == dual.center().torsion_order
        assert d.center().torsion_order == dual.component_group().torsion_order


def test_document_round_trip():
    for name in ["SL2", "PGL3", "Sp4", "G2", "GL2", "SO8plus"]:
        d = load_datum(name)
        doc = d.to_document()
        text = json.dumps(doc)
        d2 = load_datum(text)
        assert d2.cartan == d.cartan
        assert d2.cochar_basis == d.cochar_basis
        assert d2.central_rank == d.central_rank


def test_rejects_bad_cartan():
    # affine A1 (a zero leading minor) and hyperbolic (a negative one)
    for cartan in ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]]):
        with pytest.raises(RootDatumError, match="not of finite type"):
            load_datum({"name": "bad", "cartan": cartan,
                        "lattice": "adjoint", "central_rank": 0})
    with pytest.raises(RootDatumError, match="off-diagonal"):
        load_datum({"name": "bad", "cartan": [[2, 1], [1, 2]],
                    "lattice": "adjoint", "central_rank": 0})
    # a fraction is refused, not cut off to SL3's Cartan matrix
    with pytest.raises(RootDatumError, match="not an integer"):
        load_datum({"name": "bad", "cartan": [[2.9, -1], [-1, 2]]})
    with pytest.raises(RootDatumError, match="not an integer"):
        load_datum({"name": "bad", "cartan": [[2]], "central_rank": 0.5})
    # a malformed document is refused, not left to a KeyError or TypeError
    with pytest.raises(RootDatumError, match="no cartan"):
        load_datum({"name": "x"})
    with pytest.raises(RootDatumError, match="not a list of rows"):
        load_datum({"cartan": 5})
    with pytest.raises(RootDatumError, match="row 5 is not a list"):
        load_datum({"cartan": [5]})
    # refused before an IndexError or AttributeError
    with pytest.raises(RootDatumError, match="not square"):
        load_datum({"cartan": [[2], [-1, 2]]})
    with pytest.raises(RootDatumError, match="central_rank -1 is negative"):
        load_datum({"cartan": [[2]], "central_rank": -1})
    with pytest.raises(RootDatumError, match="name 5 is not a string"):
        load_datum({"cartan": [[2]], "name": 5})


def test_rejects_bad_lattice():
    # lattice must contain the coroots with integral pairings
    with pytest.raises(RootDatumError, match="coroot lattice is not contained"):
        load_datum({"name": "bad", "cartan": [[2]], "lattice": {"basis": [[3]]},
                    "central_rank": 0})
    with pytest.raises(RootDatumError, match="singular"):
        load_datum({"name": "bad", "cartan": [[2, -1], [-1, 2]],
                    "lattice": {"basis": [[1, 0], [2, 0]]}, "central_rank": 0})
    # a fraction is refused, not cut off to PGL2's basis
    with pytest.raises(RootDatumError, match="not an integer"):
        load_datum({"name": "bad", "cartan": [[2]], "lattice": {"basis": [[1.5]]},
                    "central_rank": 0})
    with pytest.raises(RootDatumError, match="not a list of rows"):
        load_datum({"cartan": [[2]], "lattice": {"basis": 5}})
    with pytest.raises(RootDatumError, match="row 5 is not a list"):
        load_datum({"cartan": [[2]], "lattice": {"basis": [5]}})


def test_a_misspelled_key_is_refused():
    # "latice" is refused, not ignored in favour of the default lattice,
    # which gives SL2 (pi_0 = 1) in place of PGL2
    assert load_datum({"cartan": [[2]], "lattice": "adjoint"}
                      ).component_group().torsion_order == 2
    with pytest.raises(RootDatumError, match="unknown datum key 'latice'"):
        load_datum({"cartan": [[2]], "latice": "adjoint"})
    with pytest.raises(RootDatumError, match="unknown datum key 'central_rnk'"):
        load_datum(json.dumps({"cartan": [[2]], "central_rnk": 1}))
    with pytest.raises(RootDatumError, match="unknown lattice key 'bases'"):
        load_datum({"cartan": [[2]], "lattice": {"basis": [[1]], "bases": [[2]]}})


def test_unknown_preset():
    with pytest.raises((RootDatumError, KeyError, ValueError)):
        load_datum("E8madeup")


def test_finite_abelian_group_str():
    assert str(FiniteAbelianGroup(())) == "1"
    assert "2" in str(FiniteAbelianGroup((2,)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ROOT_COUNTS)), st.data())
def test_root_negation_closure(name, data):
    d = load_datum(name)
    roots = d.roots()
    coeff_set = {rt.coeffs for rt in roots}
    rt = data.draw(st.sampled_from(roots))
    assert tuple(-c for c in rt.coeffs) in coeff_set
    # pairing of a root with its own coroot is 2
    assert sum(a * b for a, b in zip(rt.vector, rt.coroot)) == 2


# the quotients of Spin built from the coroots plus one fundamental coweight
EXTRA_COWEIGHT = {"SO8": 0, "SO10": 0, "SO8plus": 3, "SO8minus": 2}


@pytest.mark.parametrize("name", sorted(EXTRA_COWEIGHT))
def test_smith_basis_spans_coroots_plus_extra_coweight(name):
    d = load_datum(name)
    r = d.derived_rank
    basis = [list(row) for row in d.cochar_basis]
    coroots = [list(row) for row in d.simple_coroots]
    extra = [int(j == EXTRA_COWEIGHT[name]) for j in range(r)]
    # every generator is an integral combination of the basis rows
    for g in coroots + [extra]:
        assert is_integral(solve_left_rows(basis, [g]))
    # every basis row is an integral combination of the coroots plus a
    # multiple of the extra coweight, whose order mod coroots divides det C
    order = int(abs(determinant(coroots)))
    for b in basis:
        shifted = ([x - k * y for x, y in zip(b, extra)] for k in range(order))
        assert any(is_integral(solve_left_rows(coroots, [v])) for v in shifted)
    assert d.component_group().invariant_factors == (2,)


CARTANS = {"A1": _cartan_A(1), "A2": _cartan_A(2), "B2": _cartan_B(2),
           "G2": _cartan_G2(), "A3": _cartan_A(3), "B3": _cartan_B(3),
           "C3": _cartan_C(3)}


@st.composite
def random_root_data(draw, types=tuple(CARTANS)):
    """A Cartan matrix of derived rank 1-3 with the lattice spanned by the
    coroots and up to two random integer extra coweights."""
    cartan = CARTANS[draw(st.sampled_from(types))]
    r = len(cartan)
    extras = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                           max_size=2))
    return _datum_with_extra_coweights("random", cartan, extras)


@settings(max_examples=25, deadline=None)
@given(random_root_data())
def test_random_datum_duality(d):
    dd = d.dual_datum()
    assert dd.dual_datum().cochar_basis == d.cochar_basis
    assert d.component_group().torsion_order == dd.center().torsion_order


@settings(max_examples=15, deadline=None)
@given(random_root_data(types=("A1", "A2", "B2", "G2")), st.sampled_from([5, 7]))
def test_random_datum_series_matches_the_oracle(d, p):
    # 5 and 7 divide neither a length ratio nor a lattice index of rank <= 2
    pres = present_centralizer(d, GF(p), truncation=20)
    assert compare_report(pres, d, 20)["pass"]
