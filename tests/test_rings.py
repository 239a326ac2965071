from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from liedual import GF, QQ, ZZ

RATIONALS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    st.fractions(max_denominator=10 ** 6))


def canonical(x):
    """x is an int exactly when its value is integral, else a Fraction."""
    return type(x) is (int if Fraction(x).denominator == 1 else Fraction)


@given(RATIONALS, RATIONALS)
@example(Fraction(1, 2), Fraction(1, 2))        # a sum, a product of n/1
@example(Fraction(3, 2), Fraction(2, 3))
@example(Fraction(4, 2), -3)                    # an integral Fraction in
@example(-6, 4)                                 # inexact int division
@example(-6, 3)                                 # exact int division
@example(7, -7)
@example(True, 2)
def test_every_qq_operation_returns_the_canonical_form(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for op, ref in ((QQ.add, add), (QQ.sub, sub), (QQ.mul, mul)):
        got = op(a, b)
        assert got == ref(fa, fb) and canonical(got), (op, a, b)
    for x, fx in ((a, fa), (b, fb)):
        assert QQ.neg(x) == -fx and canonical(QQ.neg(x))
        assert QQ.coerce(x) == fx and canonical(QQ.coerce(x))
    if b:
        got = QQ.div(a, b)
        assert got == truediv(fa, fb) and canonical(got), (a, b)


def test_qq_coerce_gives_the_canonical_form():
    assert type(QQ.coerce(Fraction(4, 2))) is int and QQ.coerce(Fraction(4, 2)) == 2
    assert type(QQ.coerce(True)) is int and QQ.coerce(True) == 1
    assert QQ.coerce(Fraction(-3, 6)) == Fraction(-1, 2)
    assert QQ.coerce("-7/14") == Fraction(-1, 2)
    assert type(QQ.coerce("-14/7")) is int


@pytest.mark.parametrize("ring,a,b", [
    (ZZ, 3, 0),
    (QQ, 3, 0),                     # the int path of QQ.div
    (QQ, 0, 0),
    (QQ, Fraction(1, 2), 0),
    (QQ, 3, Fraction(0)),
    (GF(5), 3, 0),
    (GF(5), 3, 10),                 # zero mod p
    (GF(2), 0, 4),
])
def test_division_by_zero_raises_zero_division_error(ring, a, b):
    with pytest.raises(ZeroDivisionError):
        ring.div(a, b)
