"""The echelon routines of intlinalg against sympy, over Q and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual import GF, QQ, ad_kernel_dim, build_chevalley, load_datum
from liedual.chevalley import LieElement, principal_e
from liedual.intlinalg import (LinSpan, determinant, identity, rank,
                               solve_left_rows, tagged)

from reference import ad_matrix, simple_sum_e1

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
    # row i of the inverse solves x * A = e_i
    if M.rank() < len(A):
        with pytest.raises(ValueError):
            solve_left_rows(A, identity(len(A)), ring)
        return
    theirs = [[_ours(x, ring) for x in row] for row in M.inv().to_list()]
    assert solve_left_rows(A, identity(len(A)), ring) == theirs
    # x * A = v has the unique solution v * A^-1
    v = data.draw(st.lists(st.integers(-6, 6), min_size=len(A), max_size=len(A)))
    expect = [_ours(x, ring) for x in
              (_sympy_matrix([v], ring) * M.inv()).to_list()[0]]
    assert solve_left_rows(A, [v], ring) == [expect]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5), st.sampled_from(RINGS))
def test_rank_of_rectangular_matrices(A, ring):
    assert rank(A, ring) == _sympy_matrix(A, ring).rank()


@st.composite
def rows_with_dependencies(draw):
    """Random integer rows of one length, some of them repeats or sums of
    rows drawn before."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "repeat", "sum"])) if rows else "new"
        if kind == "new":
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
    return rows


def _vector(row, ring):
    return {j: ring.coerce(x) for j, x in enumerate(row) if x}


def _combination(coeffs, A, ring):
    """sum_t coeffs[t] * A[t] as a sparse vector over the ring."""
    out = {}
    for t, c in coeffs.items():
        for j, x in enumerate(A[t]):
            out[j] = ring.add(out.get(j, ring.coerce(0)), ring.mul(c, ring.coerce(x)))
    return {j: x for j, x in out.items() if x}


def _tagged_span(A, ring):
    span = LinSpan(ring)
    for t, row in enumerate(A):
        span.add(tagged(_vector(row, ring), t, ring))
    return span


@settings(max_examples=60, deadline=None)
@given(rows_with_dependencies(), st.sampled_from(RINGS), st.data())
def test_tagged_elimination_against_sympy(A, ring, data):
    deps = _tagged_span(A, ring).dependencies()
    assert len(deps) == len(A) - _sympy_matrix(A, ring).rank()
    for dep in deps:
        assert dep and not _combination(dep, A, ring)
    # a greedy independent subset: express inverts its combinations
    kept = []
    for row in A:
        if _sympy_matrix(kept + [row], ring).rank() > len(kept):
            kept.append(row)
    span = _tagged_span(kept, ring)
    assert not span.dependencies()
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(kept),
                                max_size=len(kept)))
    coeffs = {t: ring.coerce(c) for t, c in enumerate(coeffs) if ring.coerce(c)}
    assert span.express(_combination(coeffs, kept, ring)) == coeffs
    # and finds no expression outside the span
    one = ring.coerce(1)
    for j in range(len(A[0])):
        e = [int(i == j) for i in range(len(A[0]))]
        inside = _sympy_matrix(kept + [e], ring).rank() == len(kept)
        assert (span.express({j: one}) is not None) == inside


def _sympy_kernel_dim(basis, elem, ring):
    M = ad_matrix(basis, elem.change_ring(ring))
    return len(M) - _sympy_matrix(M, ring).rank()


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "Spin7"])
def test_ad_kernel_dim_matches_sympy_nullspace(name):
    d = load_datum(name)
    basis = build_chevalley(d.dual_datum())
    e = principal_e(basis, d, QQ)
    # a regular semisimple element: h-part with distinct root values
    h = LieElement(basis, {("h", k): k + 2 for k in range(basis.n)}, QQ)
    for elem in (e, h, e.add(h)):
        nullity = len(sympy.Matrix(ad_matrix(basis, elem)).nullspace())
        assert ad_kernel_dim(basis, elem, QQ) == nullity
    # the simple-sum nilpotent over good and bad primes
    e1 = simple_sum_e1(basis)
    for p in (2, 3, 5):
        assert ad_kernel_dim(basis, e1, GF(p)) == _sympy_kernel_dim(basis, e1, GF(p))
