"""Exact coefficient rings: ZZ, QQ and prime fields F_p.

A ring object bundles the scalar operations ``coerce``, ``add``, ``sub``,
``mul``, ``neg``, ``div`` and ``is_unit``.  This is the library's only
scalar interface: the polynomial engine, the matrix code in ``intlinalg``
and the adjoint-action builders all take a ring and call these.
``commalg.PolyRing`` implements it too, so the same code runs on matrices of
polynomials.  Elements are plain ints (ZZ, F_p), rationals in one canonical
form (QQ: an int when the value is integral, a Fraction only when its
denominator is not 1) or Polynomials, and each is falsy exactly when it is
zero, so zero tests are truthiness tests.
"""

import re
from fractions import Fraction


class RingMismatchError(TypeError):
    pass


class Ring:
    """Ring operations on Python numbers; PrimeField reduces them mod p."""

    is_field = False

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def is_unit(self, a):
        return a in (1, -1)

    def div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"{a} not divisible by {b} in Z")
        return q


def _canonical(q):
    """The int or Fraction q in QQ's form: Fraction arithmetic keeps n/1."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class RationalField(Ring):
    """Q with every element in canonical form: an int when the value is
    integral, a Fraction only when its denominator is not 1.  Every
    operation returns that form, so integral work (Chevalley constants,
    divided powers, the centralizer ideal) runs on ints, with no gcd."""

    name = "Q"
    is_field = True
    characteristic = 0

    def coerce(self, x):
        return x if type(x) is int else _canonical(Fraction(x))

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return _canonical(-a)

    def is_unit(self, a):
        return a != 0

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _canonical(Fraction(a) / b)


class PrimeField(Ring):
    is_field = True

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F_{p}"
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def div(self, a, b):
        try:
            return a * pow(b, -1, self.p) % self.p
        except ValueError:      # b is 0 mod p
            raise ZeroDivisionError(f"division by zero in {self.name}") from None


ZZ = IntegerRing()
QQ = RationalField()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


_RING_NAME = re.compile(r"Q|Z|F_?(\d+)")


def ring_from_name(name):
    """Parse "Q", "Z", "F<p>" or "F_<p>"."""
    m = _RING_NAME.fullmatch(name.strip())
    if not m:
        raise ValueError(f"unknown ring {name!r}")
    if m[1]:
        return GF(int(m[1]))
    return QQ if m[0] == "Q" else ZZ
