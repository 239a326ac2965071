"""Reductive root data with almost-simple derived group.

Coordinates
-----------
A datum of derived rank r with a rank-c central torus lives in two ambient
lattices of rank n = r + c:

* cocharacter side ("coweight coordinates"): the first r coordinates are
  coefficients on the fundamental coweights of the derived group, the last
  c are an integral basis of the central block;
* character side ("root coordinates"): the first r coordinates are
  coefficients on the simple roots, the last c are dual to the central
  block.

The pairing between the two sides is the plain dot product.  The datum
stores the Cartan matrix (``cartan[i][j] = <alpha_j, alpha_i^vee>``) and an
integer matrix ``cochar_basis`` whose rows are a basis of the cocharacter
lattice in coweight coordinates.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .intlinalg import (determinant, invariant_factors, is_integral, rank,
                        smith_normal_form, solve_left_rows, to_int, transpose)


class RootDatumError(ValueError):
    pass


class _Value:
    """An immutable value whose fields are its __slots__, set once by __init__
    in their order.  Equality, hash and repr are over the fields; a slot
    whose name starts with "_" holds derived values and takes no part."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__
                     if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteAbelianGroup(_Value):
    """Invariant factors d_1 | d_2 | ...; a 0 encodes a free Z factor."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors):
        self._init(invariant_factors)

    @property
    def torsion_order(self):
        return prod(d for d in self.invariant_factors if d)

    def __str__(self):
        if not self.invariant_factors:
            return "1"
        parts = [f"Z/{d}" if d else "Z" for d in self.invariant_factors]
        return " x ".join(parts)


def _symmetrizer(cartan):
    """Minimal positive integers d with d_i*C[i][j] = d_j*C[j][i].

    d_i is proportional to the squared length of the i-th simple root.
    """
    r = len(cartan)
    d = [None] * r
    d[0] = Fraction(1)
    # propagate along the (connected) Dynkin graph
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(r):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    if any(x is None for x in d):
        raise RootDatumError("Dynkin diagram is disconnected")
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _check_cartan(cartan):
    r = len(cartan)
    if r == 0:
        raise RootDatumError("pure torus: the derived group must be nontrivial")
    for i in range(r):
        if len(cartan[i]) != r:
            raise RootDatumError("cartan matrix is not square")
        if cartan[i][i] != 2:
            raise RootDatumError("cartan diagonal must be 2")
        for j in range(r):
            if i != j:
                if cartan[i][j] > 0:
                    raise RootDatumError("off-diagonal cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise RootDatumError("cartan zero pattern must be symmetric")
    d = _symmetrizer(cartan)  # also rejects disconnected diagrams
    # finite type: the symmetrization is positive definite (Sylvester's
    # criterion on the leading principal minors)
    S = [[d[i] * cartan[i][j] for j in range(r)] for i in range(r)]
    if any(determinant([row[:k] for row in S[:k]]) <= 0 for k in range(1, r + 1)):
        raise RootDatumError("cartan matrix is not of finite type")
    return d


def _enumerate_root_coeffs(cartan):
    """All roots as coefficient tuples on the simple roots."""
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(r):
                pairing = sum(beta[j] * cartan[i][j] for j in range(r))
                new.add(beta[:i] + (beta[i] - pairing,) + beta[i + 1:])
        frontier = new - roots
        roots |= frontier
    return roots


class Root(_Value):
    """One root of the datum, with both sides of the pairing realised."""

    __slots__ = ("coeffs",       # coefficients on the simple roots
                 "vector",       # root coordinates (character side)
                 "coroot",       # coweight coordinates (cocharacter side)
                 "height")

    def __init__(self, coeffs, vector, coroot, height):
        self._init(coeffs, vector, coroot, height)

    @property
    def positive(self):
        return self.height > 0


class RootDatum(_Value):
    __slots__ = ("name",
                 "cartan",          # r x r, rows indexed by simple coroots
                 "cochar_basis",    # n x n basis of the cocharacter lattice
                 "central_rank",
                 # values derived from the fields: every datum gets a fresh
                 # dict, which takes no part in equality, hash or repr
                 "_cache")

    def __init__(self, name, cartan, cochar_basis, central_rank=0):
        self._init(name, cartan, cochar_basis, central_rank, {})
        self._cache["symmetrizer"] = _check_cartan(self.cartan)
        n = self.rank
        B = [list(row) for row in self.cochar_basis]
        if len(B) != n or any(len(row) != n for row in B):
            raise RootDatumError("cochar_basis must be square of rank r + c")
        if not is_integral(B):
            raise RootDatumError("cochar_basis must be integral (inside the coweight lattice)")
        if rank(B) != n:
            raise RootDatumError("cochar_basis is singular")
        # the simple coroots in coordinates on the rows of B, kept for
        # component_group and for the coroots of a Chevalley basis
        simple_h = solve_left_rows(B, [list(a) for a in self.simple_coroots])
        if not is_integral(simple_h):
            raise RootDatumError("coroot lattice is not contained in the cocharacter lattice")
        self._cache["simple_coroot_h"] = tuple(map(tuple, to_int(simple_h)))

    # -- basic shape ---------------------------------------------------

    @property
    def derived_rank(self):
        return len(self.cartan)

    @property
    def rank(self):
        return self.derived_rank + self.central_rank

    @property
    def simple_coroots(self):
        """Rows in coweight coordinates."""
        n, r = self.rank, self.derived_rank
        return tuple(tuple(self.cartan[i][j] if j < r else 0 for j in range(n))
                     for i in range(r))

    def symmetrizer(self):
        """Squared simple-root lengths up to overall scale, as a tuple."""
        return self._cache["symmetrizer"]

    def simple_coroot_h(self):
        """The simple coroots as integer rows of coordinates on the rows of
        cochar_basis: row i solves x * cochar_basis = alpha_i^vee."""
        return self._cache["simple_coroot_h"]

    def coroot_length_sq(self):
        """Squared simple-coroot lengths, short coroot normalised to 1."""
        d = self.symmetrizer()
        m = max(d)
        return [m // di for di in d]

    # -- root enumeration ----------------------------------------------

    def roots(self):
        """All roots, positives first sorted by (height, lex)."""
        if "roots" in self._cache:
            return self._cache["roots"]
        r, n = self.derived_rank, self.rank
        d = self.symmetrizer()
        simple_coroots = self.simple_coroots

        def ip(a, b):  # 2*(a, b) in the symmetrised form
            return sum(a[i] * d[i] * self.cartan[i][j] * b[j]
                       for i in range(r) for j in range(r))

        out = []
        for coeffs in _enumerate_root_coeffs(self.cartan):
            h = sum(coeffs)
            vector = tuple(coeffs) + (0,) * self.central_rank
            norm = ip(coeffs, coeffs)
            cor = [Fraction(2 * coeffs[i] * d[i], norm) for i in range(r)]
            if not is_integral(cor):
                raise AssertionError(f"coroot of {coeffs} is not integral")
            coroot_coeffs = [int(x) for x in cor]
            coroot = [0] * n
            for i, ci in enumerate(coroot_coeffs):
                if ci:
                    for j in range(n):
                        coroot[j] += ci * simple_coroots[i][j]
            out.append(Root(tuple(coeffs), vector, tuple(coroot), h))
        out.sort(key=lambda rt: (rt.height <= 0, abs(rt.height),
                                 tuple(-x for x in rt.coeffs) if rt.height < 0 else rt.coeffs))
        result = tuple(out)
        self._cache["roots"] = result
        return result

    def positive_roots(self):
        if "positive_roots" not in self._cache:
            self._cache["positive_roots"] = tuple(rt for rt in self.roots()
                                                  if rt.positive)
        return self._cache["positive_roots"]

    def highest_root(self):
        return max(self.positive_roots(), key=lambda rt: rt.height)

    def two_rho(self):
        """Sum of the positive roots, in root coordinates."""
        n = self.rank
        acc = [0] * n
        for rt in self.positive_roots():
            for j in range(n):
                acc[j] += rt.vector[j]
        return tuple(acc)

    # -- numerical invariants --------------------------------------------

    def killing_form(self, x, y):
        """(x, y)_Kil = sum over roots of <root, x><root, y>.

        x, y are cocharacter-side vectors in coweight coordinates.
        """
        if len(x) != self.rank or len(y) != self.rank:
            raise RootDatumError("killing_form: dimension mismatch")
        total = 0
        for rt in self.roots():
            total += _dot(rt.vector, x) * _dot(rt.vector, y)
        return total

    def length_ratio(self):
        """Squared long/short root length ratio (1, 2 or 3)."""
        d = self.symmetrizer()
        return max(d) // min(d)

    def two_rho_degree(self, coroot):
        """<2 rho^vee, alpha> for alpha a coroot of the datum."""
        coroot = tuple(coroot)
        if not any(rt.coroot == coroot for rt in self.roots()):
            raise RootDatumError(f"{coroot} is not a coroot of {self.name}")
        return _dot(self.two_rho(), coroot)

    def exponents(self):
        """Exponents m_1 <= ... <= m_r of the derived group.

        Dual partition of the positive-root height counts.
        """
        heights = [rt.height for rt in self.positive_roots()]
        maxh = max(heights)
        counts = [sum(1 for h in heights if h == k) for k in range(1, maxh + 1)]
        exps = sorted(sum(1 for c in counts if c >= i)
                      for i in range(1, self.derived_rank + 1))
        return exps

    def component_group(self):
        """pi_0 of the loop space side: cocharacter lattice mod coroots."""
        if "component_group" not in self._cache:
            self._cache["component_group"] = self._component_group()
        return self._cache["component_group"]

    def _component_group(self):
        rows = self.simple_coroot_h()
        if not rows:
            return FiniteAbelianGroup((0,) * self.rank)
        facs = [d for d in invariant_factors(rows) if d != 1]
        free = self.rank - rank(rows)
        return FiniteAbelianGroup(tuple(sorted(facs)) + (0,) * free)

    def center(self):
        """Center of the group: character lattice of the dual mod its roots."""
        return self.dual_datum().component_group()

    # -- duality ---------------------------------------------------------

    def dual_datum(self):
        """Swap roots and coroots; an involution.  The dual is computed once
        per datum and kept without a link back, so dual_datum() of the dual
        is computed from the dual again."""
        if "dual_datum" not in self._cache:
            self._cache["dual_datum"] = self._dual_datum()
        return self._cache["dual_datum"]

    def _dual_datum(self):
        r, c, n = self.derived_rank, self.central_rank, self.rank
        cartan_t = tuple(tuple(self.cartan[j][i] for j in range(r)) for i in range(r))
        B = [list(row) for row in self.cochar_basis]
        Chat = [[self.cartan[i][j] if i < r and j < r else int(i == j)
                 for j in range(n)] for i in range(n)]
        # Bd = (B^-1)^T Chat^T: row i of its transpose solves x * B = Chat_i
        Bd = transpose(solve_left_rows(B, Chat))
        # the central coordinates are only a Q-basis of the central direction,
        # so each central column may be rescaled; make it primitive integral
        for j in range(r, n):
            col = [Bd[i][j] for i in range(n)]
            denoms = [x.denominator for x in col]
            numers = [abs(x.numerator) for x in col if x != 0]
            if numers:
                scale = Fraction(lcm(*denoms), gcd(*numers))
                for i in range(n):
                    Bd[i][j] *= scale
        if not is_integral(Bd):
            raise RootDatumError("dual cocharacter basis is not integral")
        name = self.name[:-5] if self.name.endswith("^dual") else self.name + "^dual"
        return RootDatum(name, cartan_t, tuple(tuple(x) for x in to_int(Bd)), c)

    # -- serialization -----------------------------------------------------

    def to_document(self):
        return {
            "name": self.name,
            "cartan": [list(row) for row in self.cartan],
            "lattice": {"basis": [list(row) for row in self.cochar_basis]},
            "central_rank": self.central_rank,
        }


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ----------------------------------------------------------------------
# construction from documents and presets


def _integer(x, what):
    """x if it is an integer; a fraction must not be cut off silently."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise RootDatumError(f"{what} entry {x!r} is not an integer")
    return x


def _integer_rows(rows, what):
    """rows as a tuple of integer tuples; rows and each row must be lists."""
    if not isinstance(rows, (list, tuple)):
        raise RootDatumError(f"{what} {rows!r} is not a list of rows")
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise RootDatumError(f"{what} row {row!r} is not a list")
    return tuple(tuple(_integer(x, what) for x in row) for row in rows)


# the lattice bases are (rank + central_rank)-square and their Smith forms
# cost its cube: datum-info takes 2 s at central_rank 240, and a document of
# a few bytes would otherwise exhaust memory
MAX_CENTRAL_RANK = 64


def _datum_from_doc(doc):
    # a misspelled key must not fall back to a default ("latice" would give
    # the simply connected lattice)
    for key in doc:
        if key not in ("name", "cartan", "lattice", "central_rank"):
            raise RootDatumError(f"unknown datum key {key!r}")
    name = doc.get("name", "datum")
    if not isinstance(name, str):
        raise RootDatumError(f"datum name {name!r} is not a string")
    if "cartan" not in doc:
        raise RootDatumError("the datum document has no cartan matrix")
    cartan = _integer_rows(doc["cartan"], "cartan")
    r = len(cartan)
    # the lattice bases below index the cartan matrix as square
    if any(len(row) != r for row in cartan):
        raise RootDatumError("cartan matrix is not square")
    c = _integer(doc.get("central_rank", 0), "central_rank")
    if c < 0:
        raise RootDatumError(f"central_rank {c} is negative")
    if c > MAX_CENTRAL_RANK:
        raise RootDatumError(f"central_rank {c} exceeds the ceiling {MAX_CENTRAL_RANK}")
    n = r + c
    lattice = doc.get("lattice", "simply_connected")
    if lattice == "simply_connected":
        B = [[cartan[i][j] if i < r and j < r else int(i == j)
              for j in range(n)] for i in range(n)]
    elif lattice == "adjoint":
        B = [[int(i == j) for j in range(n)] for i in range(n)]
    elif isinstance(lattice, dict) and "basis" in lattice:
        for key in lattice:
            if key != "basis":
                raise RootDatumError(f"unknown lattice key {key!r}")
        B = _integer_rows(lattice["basis"], "lattice basis")
    else:
        raise RootDatumError(f"unknown lattice tag {lattice!r}")
    return RootDatum(name, cartan, tuple(tuple(row) for row in B), c)


def load_datum(source):
    """Build a datum from a preset name, a dict, or a JSON document."""
    if isinstance(source, dict):
        return _datum_from_doc(source)
    text = source.strip()
    if text in PRESETS:
        return preset(text)
    if text.startswith("{"):
        import json  # only here: the rest of the library runs without it
        return _datum_from_doc(json.loads(text))
    raise RootDatumError(f"unknown preset or document: {source!r}")


# Cartan matrices, Bourbaki numbering, cartan[i][j] = <alpha_j, alpha_i^vee>.

def _cartan_A(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def _cartan_B(n):
    C = _cartan_A(n)
    C[n - 1][n - 2] = -2   # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
    return C


def _cartan_C(n):
    C = _cartan_A(n)
    C[n - 2][n - 1] = -2   # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
    return C


def _cartan_D(n):
    C = _cartan_A(n)
    C[n - 1][n - 2] = C[n - 2][n - 1] = 0
    C[n - 1][n - 3] = C[n - 3][n - 1] = -1
    return C


def _cartan_E(n):
    # node 2 hangs off node 4 (Bourbaki); chain 1-3-4-5-6(-7)
    chain = [1, 3, 4, 5, 6, 7, 8][:n - 1]
    edges = list(zip(chain, chain[1:])) + [(2, 4)]
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        C[a - 1][b - 1] = C[b - 1][a - 1] = -1
    return C


def _cartan_F4():
    C = _cartan_A(4)
    # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    C[2][1] = -2
    C[1][2] = -1
    return C


def _cartan_G2():
    return [[2, -1], [-3, 2]]


def _datum_with_extra_coweights(name, cartan, extras):
    """Lattice generated by the coroots together with extra coweight rows.

    With U*M*V = D in Smith form, U*M = D*V^-1 has the row span of M (U is
    unimodular), and its nonzero rows are a basis; row i of D*V^-1 solves
    x * V = D_i.
    """
    r = len(cartan)
    rows = [list(row) for row in cartan] + [list(e) for e in extras]
    _, D, V = smith_normal_form(rows)
    B = [row for row in to_int(solve_left_rows(V, D)) if any(row)]
    if len(B) != r:
        raise RootDatumError("generators do not span a full-rank lattice")
    return RootDatum(name, tuple(tuple(row) for row in cartan),
                     tuple(tuple(row) for row in B), 0)


def _fundamental_coweight(r, i):
    return [int(j == i) for j in range(r)]


def _build_presets():
    presets = {}

    def sc(name, cartan):
        presets[name] = lambda c=cartan, nm=name: _datum_from_doc(
            {"name": nm, "cartan": c, "lattice": "simply_connected"})

    def adj(name, cartan):
        presets[name] = lambda c=cartan, nm=name: _datum_from_doc(
            {"name": nm, "cartan": c, "lattice": "adjoint"})

    for n in range(1, 6):
        sc(f"SL{n + 1}", _cartan_A(n))
        adj(f"PGL{n + 1}", _cartan_A(n))
    for n, (s, a) in {2: ("Spin5", "SO5"), 3: ("Spin7", "SO7")}.items():
        sc(s, _cartan_B(n))
        adj(a, _cartan_B(n))
    for n in (2, 3):
        sc(f"Sp{2 * n}", _cartan_C(n))
        adj(f"PSp{2 * n}", _cartan_C(n))
    for n in (4, 5):
        sc(f"Spin{2 * n}", _cartan_D(n))
        adj(f"PSO{2 * n}", _cartan_D(n))
        # vector quotient SO_{2n}: coroots + fundamental coweight 1
        presets[f"SO{2 * n}"] = lambda n=n: _datum_with_extra_coweights(
            f"SO{2 * n}", _cartan_D(n), [_fundamental_coweight(n, 0)])
    # the two half-spin quotients of Spin8
    presets["SO8plus"] = lambda: _datum_with_extra_coweights(
        "SO8plus", _cartan_D(4), [_fundamental_coweight(4, 3)])
    presets["SO8minus"] = lambda: _datum_with_extra_coweights(
        "SO8minus", _cartan_D(4), [_fundamental_coweight(4, 2)])
    for n in (6, 7):
        sc(f"E{n}sc", _cartan_E(n))
        adj(f"PE{n}", _cartan_E(n))
    sc("F4", _cartan_F4())
    sc("G2", _cartan_G2())
    # rows are e_1, e_2 in (coweight, center/2) coordinates: e_i = ±w + z/2
    presets["GL2"] = lambda: RootDatum(
        "GL2", ((2,),), ((1, 1), (-1, 1)), central_rank=1)
    # aliases used throughout the test-bench
    presets["A1"] = presets["SL2"]
    presets["A2"] = presets["SL3"]
    presets["B2"] = presets["Spin5"]
    presets["B3"] = presets["Spin7"]
    presets["C2"] = presets["Sp4"]
    presets["C3"] = presets["Sp6"]
    presets["D4"] = presets["Spin8"]
    return presets


PRESETS = _build_presets()


@lru_cache(maxsize=None)
def preset(name):
    if name not in PRESETS:
        raise RootDatumError(f"unknown preset {name!r}")
    return PRESETS[name]()


def preset_names():
    return sorted(PRESETS)
