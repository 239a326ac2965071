"""The echelon routines of intlinalg against sympy, over Q and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual import GF, QQ, ad_kernel_dim, build_chevalley, load_datum
from liedual.chevalley import LieElement, principal_e, simple_sum_e1
from liedual.intlinalg import determinant, inverse, rank, solve_left

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

RINGS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def _sympy_matrix(A, ring):
    K = sympy.QQ if ring is QQ else sympy.GF(ring.p)
    return DomainMatrix.from_list(A, K)


def _ours(x, ring):
    """A sympy domain element as the library's scalar for the ring."""
    if ring is QQ:
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % ring.p


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.sampled_from(RINGS), st.data())
def test_echelon_matches_sympy(A, ring, data):
    M = _sympy_matrix(A, ring)
    assert rank(A, ring) == M.rank()
    assert determinant(A, ring) == _ours(M.det(), ring)
    if M.rank() < len(A):
        with pytest.raises(ValueError):
            inverse(A, ring)
        return
    theirs = [[_ours(x, ring) for x in row] for row in M.inv().to_list()]
    assert inverse(A, ring) == theirs
    # x * A = v has the unique solution v * A^-1
    v = data.draw(st.lists(st.integers(-6, 6), min_size=len(A), max_size=len(A)))
    expect = [_ours(x, ring) for x in
              (_sympy_matrix([v], ring) * M.inv()).to_list()[0]]
    assert solve_left(A, v, ring) == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5), st.sampled_from(RINGS))
def test_rank_of_rectangular_matrices(A, ring):
    assert rank(A, ring) == _sympy_matrix(A, ring).rank()


def _sympy_kernel_dim(basis, elem, ring):
    M = basis.ad_matrix(elem.change_ring(ring))
    return len(M) - _sympy_matrix(M, ring).rank()


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "Spin7"])
def test_ad_kernel_dim_matches_sympy_nullspace(name):
    d = load_datum(name)
    basis = build_chevalley(d.dual_datum())
    e = principal_e(basis, d, QQ)
    # a regular semisimple element: h-part with distinct root values
    h = LieElement(basis, {("h", k): k + 2 for k in range(basis.n)}, QQ)
    for elem in (e, h, e.add(h)):
        nullity = len(sympy.Matrix(basis.ad_matrix(elem)).nullspace())
        assert ad_kernel_dim(basis, elem, QQ) == nullity
    # the simple-sum nilpotent over good and bad primes
    e1 = simple_sum_e1(basis)
    for p in (2, 3, 5):
        assert ad_kernel_dim(basis, e1, GF(p)) == _sympy_kernel_dim(basis, e1, GF(p))
