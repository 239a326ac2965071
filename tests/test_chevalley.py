import hashlib
from contextlib import ExitStack
from itertools import product
from types import ModuleType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedual
from liedual import (GF, QQ, ZZ, LieElement, ad_kernel_dim, bracket,
                     build_chevalley, load_datum, preset_names, principal_e)
from liedual import root_datum
from liedual.intlinalg import is_integral, solve_left_rows
from liedual.root_datum import Root, RootDatum

from reference import (ad_matrix, bracket_from_tables, mat_mul,
                       simple_sum_e1)


def basis_for(name):
    return build_chevalley(load_datum(name).dual_datum())


def test_dimensions():
    for name, dim in [("SL2", 3), ("SL3", 8), ("Sp4", 10), ("G2", 14),
                      ("SL4", 15), ("Spin7", 21)]:
        assert len(basis_for(name).basis_keys()) == dim, name


def test_jacobi_small_rank():
    for name in ["SL2", "PGL2", "SL3", "Sp4", "PSp4", "G2", "SL4", "Spin7"]:
        assert basis_for(name).verify_jacobi()


def test_structure_constants_abs_value():
    # |N(a,b)| = p + 1 where p is the length of the a-chain through b
    for name in ["SL3", "Sp4", "G2"]:
        basis = basis_for(name)
        for a, b, n in basis.structure_constant_table():
            assert type(n) is int and abs(n) == basis.chain_p(a, b) + 1


def test_every_structure_constant_is_an_int():
    for name in preset_names():
        table = basis_for(name).structure_constant_table()
        assert all(type(n) is int and n for _, _, n in table), name


def test_coroot_h_solves_x_times_b_on_every_preset():
    # reference: one Fraction solve of x * B = coroot per root
    for name in preset_names():
        for d in (load_datum(name), load_datum(name).dual_datum()):
            basis = build_chevalley(d)
            B = [list(row) for row in d.cochar_basis]
            for rt in d.roots():
                (x,) = solve_left_rows(B, [list(rt.coroot)])
                assert is_integral(x), (name, rt.coeffs)
                got = basis.coroot_h(rt.coeffs)
                assert all(type(c) is int for c in got)
                assert list(got) == x, (name, rt.coeffs)


@pytest.mark.parametrize("name", ["SL3", "G2", "GL2"])
def test_a_coroot_off_its_combination_raises(name):
    d = load_datum(name)
    roots = d.roots()
    k = len(roots) - 1                  # the last negative root
    last = roots[k]
    bad = Root(last.coeffs, last.vector, tuple(2 * c for c in last.coroot),
               last.height)
    wrong = roots[:k] + (bad,)
    with mock.patch.object(RootDatum, "roots", lambda self: wrong):
        with pytest.raises(AssertionError, match="outside the cocharacter lattice"):
            build_chevalley(d)

# sha256 of repr(sorted((a, b, N))) over the whole table, first 16 hex digits
TABLE_DIGESTS = {"F4": (816, "c52fb69f6e82d687"),
                 "E6sc": (1440, "0abaacb28d7eb749"),
                 "E7sc": (4032, "8f2e850b0de92402")}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_structure_constant_table_digest(name):
    table = basis_for(name).structure_constant_table()
    digest = hashlib.sha256(repr(sorted(table)).encode()).hexdigest()[:16]
    assert (len(table), digest) == TABLE_DIGESTS[name]


# name -> sha256 (first 16 hex digits) of the repr of the Chevalley data of
# the preset's datum and of its dual: structure_constant_table(), coroot_h
# and divided_powers of every root, in root order; recorded at commit
# 15cdcfe, where the tables were keyed by coefficient tuples
CHEVALLEY_DIGESTS = {
    "A1": ("e8c301cd1a015304", "ac4e3ef1ffa25ed5"),
    "A2": ("7cc66063c09036ca", "9b222401cf87551c"),
    "B2": ("50ac717e71bd3e42", "d38e71c264a9a013"),
    "B3": ("beabb9637081391f", "7f5621221228ae51"),
    "C2": ("900101ed5c6e0f0f", "60a437938b2346d3"),
    "C3": ("c9ba2f6d309d9d0b", "56cda07a4b9b94aa"),
    "D4": ("bea37bdbfdfe915b", "0bd50cde8c6fcc5e"),
    "E6sc": ("63f0077dc95adcd7", "239331eff19de548"),
    "E7sc": ("d030fedffd988608", "6a809c5abaab6b22"),
    "F4": ("8d28132c6306dd39", "36a8dadb749f2d4f"),
    "G2": ("7e0f5ce88d573e02", "a5e5818d00375df0"),
    "GL2": ("9939bd78c386fb6b", "9939bd78c386fb6b"),
    "PE6": ("239331eff19de548", "63f0077dc95adcd7"),
    "PE7": ("6a809c5abaab6b22", "d030fedffd988608"),
    "PGL2": ("ac4e3ef1ffa25ed5", "e8c301cd1a015304"),
    "PGL3": ("9b222401cf87551c", "7cc66063c09036ca"),
    "PGL4": ("d89e4ca3ad9ff08a", "f95d30367a8b5070"),
    "PGL5": ("e057950c6997d4d2", "5652d2aaa4daa6e1"),
    "PGL6": ("b15405e40f2eb9de", "ebf49e06d78b67b8"),
    "PSO10": ("a4c50fb09e135019", "80548c8961ca1bcc"),
    "PSO8": ("0bd50cde8c6fcc5e", "bea37bdbfdfe915b"),
    "PSp4": ("d38e71c264a9a013", "50ac717e71bd3e42"),
    "PSp6": ("7f5621221228ae51", "beabb9637081391f"),
    "SL2": ("e8c301cd1a015304", "ac4e3ef1ffa25ed5"),
    "SL3": ("7cc66063c09036ca", "9b222401cf87551c"),
    "SL4": ("f95d30367a8b5070", "d89e4ca3ad9ff08a"),
    "SL5": ("5652d2aaa4daa6e1", "e057950c6997d4d2"),
    "SL6": ("ebf49e06d78b67b8", "b15405e40f2eb9de"),
    "SO10": ("a26f44a8d9384810", "9fb4061c4e3daed3"),
    "SO5": ("60a437938b2346d3", "900101ed5c6e0f0f"),
    "SO7": ("56cda07a4b9b94aa", "c9ba2f6d309d9d0b"),
    "SO8": ("7bb2f905d9bb25e4", "4a64a0be658ae36e"),
    "SO8minus": ("d143fa5d55be2b3c", "bb17d34f9a65144a"),
    "SO8plus": ("8de6d30d771454ef", "65ed2559297e134f"),
    "Sp4": ("900101ed5c6e0f0f", "60a437938b2346d3"),
    "Sp6": ("c9ba2f6d309d9d0b", "56cda07a4b9b94aa"),
    "Spin10": ("80548c8961ca1bcc", "a4c50fb09e135019"),
    "Spin5": ("50ac717e71bd3e42", "d38e71c264a9a013"),
    "Spin7": ("beabb9637081391f", "7f5621221228ae51"),
    "Spin8": ("bea37bdbfdfe915b", "0bd50cde8c6fcc5e"),
}


def chevalley_digest(d):
    basis = build_chevalley(d)
    text = repr([basis.structure_constant_table(),
                 [basis.coroot_h(rt.coeffs) for rt in basis.roots],
                 [basis.divided_powers(rt.coeffs) for rt in basis.roots]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_chevalley_data_is_pinned_on_every_preset_and_its_dual():
    assert sorted(CHEVALLEY_DIGESTS) == sorted(preset_names())
    for name, digests in CHEVALLEY_DIGESTS.items():
        d = load_datum(name)
        assert (chevalley_digest(d), chevalley_digest(d.dual_datum())) == digests, name


def every_preset_and_its_dual():
    for name in preset_names():
        d = load_datum(name)
        yield d
        yield d.dual_datum()


def test_root_codes_are_closed_under_negation_on_every_preset_and_its_dual():
    for d in every_preset_and_its_dual():
        codes = set(build_chevalley(d)._code.values())
        assert {-c for c in codes} == codes, d.name


def test_a_basis_reuses_the_symmetrizer_and_coroot_solve_of_its_datum():
    # both are computed once, while the datum is validated
    modules = [m for m in vars(liedual).values()
               if isinstance(m, ModuleType) and hasattr(m, "solve_left_rows")]
    for d in every_preset_and_its_dual():
        fresh = RootDatum(d.name, d.cartan, d.cochar_basis, d.central_rank)
        with ExitStack() as stack:
            solves = [stack.enter_context(mock.patch.object(
                m, "solve_left_rows", wraps=m.solve_left_rows)) for m in modules]
            sym = stack.enter_context(mock.patch.object(
                root_datum, "_symmetrizer", wraps=root_datum._symmetrizer))
            build_chevalley(fresh)
        for solve in solves:
            solve.assert_not_called()
        sym.assert_not_called()


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "F4"])
def test_cyclic_identity_on_zero_sum_triples(name):
    # N(a, b)/(c, c) = N(b, c)/(a, a) = N(c, a)/(b, b) for a + b + c = 0,
    # with (x, x) from the symmetrised Cartan matrix of the basis's datum
    basis = basis_for(name)
    dual = basis.datum
    d, C = dual.symmetrizer(), dual.cartan
    r = dual.derived_rank

    def length_sq(x):
        return sum(x[i] * d[i] * C[i][j] * x[j] for i in range(r) for j in range(r))

    roots = {rt.coeffs for rt in dual.roots()}
    triples = 0
    for a, b in product(roots, repeat=2):
        c = tuple(-x - y for x, y in zip(a, b))
        if c not in roots:
            continue
        triples += 1
        nab, nbc, nca = basis.N(a, b), basis.N(b, c), basis.N(c, a)
        assert nab * length_sq(a) == nbc * length_sq(c), (a, b)
        assert nbc * length_sq(b) == nca * length_sq(a), (a, b)
    assert triples == len(basis.structure_constant_table())


def test_structure_constant_ranges():
    assert {abs(n) for _, _, n in basis_for("SL3").structure_constant_table()} == {1}
    assert {abs(n) for _, _, n in basis_for("Sp4").structure_constant_table()} == {1, 2}
    assert {abs(n) for _, _, n in basis_for("G2").structure_constant_table()} == {1, 2, 3}


def test_antisymmetry_and_negation():
    # N(-a, -b) is written from the chain walk of (a, b), unchecked
    for d in every_preset_and_its_dual():
        basis = build_chevalley(d)
        for a, b, n in basis.structure_constant_table():
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            for m in (basis.N(b, a), basis.N(na, nb)):
                assert type(m) is int and m == -n, (d.name, a, b)


def test_opposite_root_bracket_is_coroot():
    for name in ["SL2", "SL3", "Sp4", "G2"]:
        d = load_datum(name)
        basis = basis_for(name)
        dual = basis.datum
        for rt in dual.positive_roots():
            out = basis.bracket_keys(("x", rt.coeffs),
                                     ("x", tuple(-c for c in rt.coeffs)))
            assert out, "[x_a, x_-a] must be a nonzero torus element"
            assert all(k[0] == "h" for k in out)


def test_cartan_acts_by_pairing():
    basis = basis_for("Sp4")
    dual = basis.datum
    for k in range(dual.rank):
        for rt in dual.roots():
            out = basis.bracket_keys(("h", k), ("x", rt.coeffs))
            expected = sum(a * b for a, b in zip(rt.vector, dual.cochar_basis[k]))
            assert out.get(("x", rt.coeffs), 0) == expected
            assert type(basis.pairing(rt.coeffs, k)) is int


@pytest.mark.parametrize("name", ["SL2", "GL2", "Sp4", "G2", "PSO8", "F4"])
def test_ad_columns_match_brackets(name):
    # column j of ad(key) is [key, basis_keys()[j]], entry by entry, with
    # the bracket read off the integer tables; bracket_keys, which reads the
    # divided powers, agrees with it
    basis = basis_for(name)
    keys = basis.basis_keys()
    for key in keys:
        cols = basis.ad_columns(key)
        assert len(cols) == basis.dim
        for col, other in zip(cols, keys):
            reference = bracket_from_tables(basis, key, other)
            assert basis.bracket_keys(key, other) == reference, (key, other)
            expected = {basis.key_index(k): c for k, c in reference.items()}
            assert dict(col) == expected and len(col) == len(expected)
            assert all(type(c) is int and c for _, c in col)


def test_principal_e_coefficients():
    # coefficients are the half squared coroot lengths, normalized to max 1..l
    basis = basis_for("G2")
    e = principal_e(basis, load_datum("G2"))
    coeffs = sorted(e.coefficients.values())
    assert coeffs == [1, 3]
    basis2 = basis_for("Sp4")
    e2 = principal_e(basis2, load_datum("Sp4"))
    assert sorted(e2.coefficients.values()) == [1, 2]


def test_principal_e_regular():
    for name in ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "PSp4", "G2", "GL2"]:
        d = load_datum(name)
        basis = build_chevalley(d.dual_datum())
        e = principal_e(basis, d, QQ)
        assert ad_kernel_dim(basis, e, QQ) == d.rank, name


def test_simple_sum_regular_only_in_good_characteristic():
    d = load_datum("G2")
    basis = build_chevalley(d.dual_datum())
    e1 = simple_sum_e1(basis).change_ring(QQ)
    assert ad_kernel_dim(basis, e1, QQ) == 2
    # principal e over F_p for good p keeps the minimal kernel
    for p in (5, 7, 11):
        ep = principal_e(basis, d, GF(p))
        assert ad_kernel_dim(basis, ep, GF(p)) == 2


def test_ad_matrix_nilpotent_on_e():
    basis = basis_for("SL3")
    e = principal_e(basis, load_datum("SL3"), QQ)
    M = ad_matrix(basis, e)
    P = M
    for _ in range(len(basis.basis_keys())):
        P = mat_mul(P, M)
    assert all(all(x == 0 for x in row) for row in P)


@st.composite
def lie_elements(draw, basis):
    keys = basis.basis_keys()
    n = draw(st.integers(1, 3))
    coeffs = {}
    for _ in range(n):
        k = draw(st.sampled_from(keys))
        coeffs[k] = draw(st.integers(-4, 4))
    return LieElement(basis, {k: c for k, c in coeffs.items() if c}, ZZ)


BASIS_A2 = build_chevalley(load_datum("SL3").dual_datum())


@settings(max_examples=60, deadline=None)
@given(lie_elements(BASIS_A2), lie_elements(BASIS_A2), lie_elements(BASIS_A2))
def test_bracket_bilinear_antisymmetric_jacobi(x, y, z):
    b = BASIS_A2
    assert bracket(b, x, y) == bracket(b, y, x).scale(-1)
    assert bracket(b, x.add(y), z) == bracket(b, x, z).add(bracket(b, y, z))
    s = bracket(b, x, bracket(b, y, z))
    s = s.add(bracket(b, y, bracket(b, z, x)))
    s = s.add(bracket(b, z, bracket(b, x, y)))
    assert not s.coefficients


def test_sympy_cross_check_sl2_structure():
    # independent check of the A1 commutation relations
    sympy = pytest.importorskip("sympy")
    h = sympy.Matrix([[1, 0], [0, -1]])
    x = sympy.Matrix([[0, 1], [0, 0]])
    y = sympy.Matrix([[0, 0], [1, 0]])
    # dual of PGL2 carries the coroot lattice, so h_0 is the coroot itself
    basis = basis_for("PGL2")
    a = basis.datum.positive_roots()[0].coeffs
    na = tuple(-c for c in a)
    hx = basis.bracket_keys(("h", 0), ("x", a)).get(("x", a), 0)
    assert (h * x - x * h) == hx * x
    hcoeff = basis.bracket_keys(("x", a), ("x", na))[("h", 0)]
    assert (x * y - y * x) == hcoeff * h
