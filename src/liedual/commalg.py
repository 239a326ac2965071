"""Exact sparse multivariate polynomials, Buchberger Groebner bases,
Krull dimension and Hilbert series of graded quotients.

Monomials are exponent tuples; the term order is weighted graded reverse
lexicographic: compare weighted degree first, ties broken by the *last*
nonzero entry of the exponent difference being negative.

A ring may carry caps (i, q), and is then the quotient k[x]/(x_i^q):
`product`, the one loop under every product of polynomials, keeps only the
monomials `below` the caps.  Sums, scalings and the Groebner machinery take
the terms as given.  `Substitution` is the one memoised monomial map
x_i -> image_i on term dicts, truncated by caps and charged to a budget:
the triangular solve, its point check and the Hopf tables call it.

Division looks for a divisor through a DivisorIndex: each leading monomial
of the basis carries its support mask, bit i set where exponent i is
nonzero (Bachmann & Schoenemann's short exponent vector, ISSAC 1998, one
bit per variable).  A monomial divides m only if its mask lies inside
mask(m), so one AND rejects most candidates before the exponents are
compared; the test is only a necessary condition, so the first divisor in
basis order, and with it every remainder, is the one a plain scan finds.
"""

import heapq
import re
from fractions import Fraction
from itertools import compress
from operator import add, le, mul, sub

from .rings import RingMismatchError

# the default work bound before BudgetExceeded: S-pairs in one
# groebner_basis call, products formed by the Substitution of one
# triangular solve (the default of present_centralizer and of --budget)
DEFAULT_BUDGET = 200000


class BudgetExceeded(RuntimeError):
    """The configured budget ran out, of S-pairs (groebner_basis) or of
    monomial products (a Substitution); not a mathematical failure."""


def below(m, caps):
    """Whether the monomial m survives in k[x]/(x_i^q for (i, q) in caps):
    m[i] < q at every cap, so that no pure power of caps divides m."""
    return all(m[i] < q for i, q in caps)


def product(a, b, R, caps=()):
    """The product of two {monomial: coefficient} dicts over the
    coefficient ring R, with only its terms below the caps."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            if caps and not below(m, caps):
                continue
            c = R.mul(c1, c2)
            out[m] = R.add(out[m], c) if m in out else c
    return {m: c for m, c in out.items() if c}


class Substitution:
    """The monomial map x_i -> images[i] from the ring `source`: called on
    an exponent tuple m, m's image as a {monomial: coefficient} dict over R
    below the caps (`unit` for the empty monomial).  A variable outside the
    bitmask `mapped` (default: all) maps to itself, and a cap on it (its bit
    in `capped`) makes m zero.  Entries are memoised, each built from the
    one with one factor fewer of m's last mapped variable; each product
    formed costs one unit of budget (None: no bound).  A caller may grow
    images, mapped, capped and caps between calls, as long as no entry
    already memoised would change."""

    def __init__(self, source, images, R, unit, caps=(), budget=None):
        self.source, self.images, self.R, self.unit = source, images, R, unit
        self.caps, self.budget, self.one = caps, budget, R.coerce(1)
        self.mapped, self.capped = (1 << source.nvars) - 1, 0
        self.memo, self.spent = {}, 0

    def __call__(self, m):
        mask = self.source.support_mask(m)
        if mask & self.capped and not below(m, self.caps):
            return {}
        hit = mask & self.mapped
        if not hit:
            return {m: self.one} if mask else self.unit
        v = self.memo.get(m)
        if v is None:
            self.spent += 1
            if self.budget is not None and self.spent > self.budget:
                raise BudgetExceeded(f"product budget {self.budget} exhausted")
            k = hit.bit_length() - 1
            v = self.memo[m] = product(self(m[:k] + (m[k] - 1,) + m[k + 1:]),
                                       self.images[k], self.R, self.caps)
        return v


class PolyRing:
    """k[x]/(x_i^q for (i, q) in caps) on the named variables of the given
    weights; every product formed in the ring keeps only the terms below."""

    def __init__(self, coeff_ring, names, weights=None, caps=()):
        self.coeff = coeff_ring
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.weights = tuple(weights) if weights else (1,) * len(self.names)
        if len(self.weights) != len(self.names) or any(w <= 0 for w in self.weights):
            raise ValueError("need one positive weight per variable")
        self.nvars = len(self.names)
        self.caps = tuple((i, q) for i, q in caps)
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._bits = tuple(1 << i for i in range(self.nvars))

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.coeff == other.coeff
                and self.names == other.names and self.weights == other.weights
                and self.caps == other.caps)

    def __hash__(self):
        return hash((self.coeff, self.names, self.weights, self.caps))

    def __repr__(self):
        caps = ", ".join(f"{self.names[i]}^{q}" for i, q in self.caps)
        return f"{self.coeff}[{', '.join(self.names)}]" + (f"/({caps})" if caps else "")

    def wdeg(self, exps):
        return sum(map(mul, exps, self.weights))

    def mono_cmp_key(self, exps):
        """Sort key putting larger monomials first under weighted grevlex."""
        return (-self.wdeg(exps), exps[::-1])

    def support_mask(self, exps):
        """The int with bit i set exactly where exps[i] is nonzero."""
        return sum(compress(self._bits, exps))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.coeff.coerce(c)
        if c == self.coeff.coerce(0):
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def gen(self, name):
        i = self._index[name]
        exps = tuple(int(j == i) for j in range(self.nvars))
        return Polynomial(self, {exps: self.coeff.coerce(1)})

    def gens(self):
        return [self.gen(nm) for nm in self.names]

    def monomial(self, exps, c=1):
        c = self.coeff.coerce(c)
        if c == self.coeff.coerce(0):
            return self.zero()
        return Polynomial(self, {tuple(exps): c})

    # -- the rings.* scalar interface, so matrices of polynomials can use
    # the intlinalg code --------------------------------------------------

    is_field = False

    def coerce(self, x):
        return x if isinstance(x, Polynomial) else self.const(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        """The units are the constants that are units of the coefficients."""
        c = a.terms.get((0,) * self.nvars)
        return len(a.terms) == 1 and c is not None and self.coeff.is_unit(c)

    def div(self, a, b):
        if not self.is_unit(b):
            raise ValueError(f"{b} is not a unit of {self}")
        R = self.coeff
        return a.scale(R.div(R.coerce(1), b.terms[(0,) * self.nvars]))


class Polynomial:
    # _lead is filled by the first leading_monomial() call, or set at birth
    # by monic() (the input's lead) and normal_form() (the first remainder
    # term kept); nothing changes terms after construction
    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        R = self.ring.coeff
        out = dict(self.terms)
        zero = R.coerce(0)
        for m, c in other.terms.items():
            out[m] = R.add(out.get(m, zero), c)
        return Polynomial(self.ring, out)

    def __neg__(self):
        R = self.ring.coeff
        return Polynomial(self.ring, {m: R.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return Polynomial(self.ring, product(self.terms, other.terms, self.ring.coeff,
                                             self.ring.caps))

    __rmul__ = __mul__

    def scale(self, c):
        R = self.ring.coeff
        c = R.coerce(c)
        return Polynomial(self.ring, {m: R.mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, n):
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: self.ring.mono_cmp_key(mc[0]))

    def leading_monomial(self):
        try:
            return self._lead
        except AttributeError:
            self._lead = min(self.terms, key=self.ring.mono_cmp_key)
            return self._lead

    def total_degree(self):
        if not self.terms:
            return -1
        return max(self.ring.wdeg(m) for m in self.terms)

    def is_homogeneous(self):
        degs = map(self.ring.wdeg, self.terms)
        first = next(degs, None)
        return all(d == first for d in degs)

    def monic(self):
        """self scaled to leading coefficient 1; self itself when it already
        has it (polynomials are immutable)."""
        if not self.terms:
            return self
        R = self.ring.coeff
        lm = self.leading_monomial()
        lc = self.terms[lm]
        if lc == 1:
            return self
        inv = R.div(R.coerce(1), lc)
        out = Polynomial(self.ring, {m: R.mul(inv, c) for m, c in self.terms.items()})
        out._lead = lm
        return out

    # -- canonical strings -----------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        one = self.ring.coeff.coerce(1)
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                for i, e in enumerate(m) if e)
            neg = _coeff_is_negative(c)
            mag = -c if neg else c
            if mono and mag == one:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not bits:
                bits.append(f"-{body}" if neg else body)
            else:
                bits.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(bits)

    __repr__ = __str__


def _coeff_is_negative(c):
    return isinstance(c, (int, Fraction)) and c < 0


_FACTOR = r"(?:\d+(?:/0*[1-9]\d*)?|[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?)"
_TERM = re.compile(rf"\s*([+-]?)\s*({_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*")


def parse_polynomial(ring, text):
    """Parse a polynomial string, as str(Polynomial) prints it, into the ring.

    The string is one or more terms, and every term after the first is led
    by ``+`` or ``-`` (the first may be).  A term is factors joined by
    ``*``; a factor is a number, ``int`` or ``int/int`` with a nonzero
    denominator, or a variable of the ring with an optional ``^int``.
    Whitespace may stand around signs and ``*``.  Anything else raises
    ValueError naming the unparsed rest of the string, and so does a term
    whose coefficient the ring cannot hold (1/5 over F_5).
    """
    out, pos = ring.zero(), 0
    while True:
        m = _TERM.match(text, pos)
        if not m or (pos and not m[1]):
            raise ValueError(f"cannot parse {text[pos:]!r}")
        coeff, exps = Fraction(-1 if m[1] == "-" else 1), [0] * ring.nvars
        for factor in m[2].split("*"):
            name, _, e = factor.strip().partition("^")
            if name[0].isdigit():
                coeff *= Fraction(name)
            elif name in ring._index:
                exps[ring._index[name]] += int(e or 1)
            else:
                raise ValueError(f"unknown variable {name!r}")
        try:
            term = ring.monomial(exps, coeff)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {coeff} of {m[2]!r} is not in "
                             f"{ring.coeff.name}") from None
        out = out + term
        pos = m.end()
        if pos == len(text):
            return out


class Ideal:
    """A list of nonzero generators over a common polynomial ring."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if g]
        for g in self.gens:
            if g.ring != ring:
                raise RingMismatchError("generator outside the ring")

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens))})"


# ----------------------------------------------------------------------
# Groebner machinery (field coefficients)


def _mono_divides(a, b):
    return all(map(le, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _mono_quot(a, b):
    return tuple(map(sub, a, b))


class DivisorIndex:
    """The leading monomials of a basis in basis order, each with its
    support mask, for finding the first one that divides a monomial.

    entries[k] is (mask, leading monomial, polynomial) for the k-th nonzero
    polynomial.  Build one index per basis and pass it to every normal_form
    by that basis; add() grows it with the basis.
    """

    def __init__(self, basis=()):
        self.entries = []
        for g in basis:
            self.add(g)

    def add(self, g):
        if g:
            lm = g.leading_monomial()
            self.entries.append((g.ring.support_mask(lm), lm, g))

    def divisor(self, m, mask):
        """The first entry's (leading monomial, polynomial) whose monomial
        divides m, or None; mask is the support mask of m."""
        outside = ~mask
        for lmask, lm, g in self.entries:
            if not lmask & outside and _mono_divides(lm, m):
                return lm, g
        return None


def normal_form(f, basis):
    """Remainder of f on division by basis (field coefficients).

    basis is a list of polynomials or a DivisorIndex of one; a caller that
    reduces many polynomials by the same basis builds the index once.  The
    reducer of a term m is the first basis element whose leading monomial
    divides m.  Candidates are filtered by support mask first: a lead whose
    mask has a bit outside mask(m) cannot divide m.

    The work list is a heap keyed by mono_cmp_key, so the largest monomial
    pops first.  A reduction step adds only monomials smaller than the one
    it pops, so a popped monomial never comes back.
    """
    ring = f.ring
    R = ring.coeff
    key = ring.mono_cmp_key
    support = ring.support_mask
    index = basis if isinstance(basis, DivisorIndex) else DivisorIndex(basis)
    rem = {}
    work = dict(f.terms)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    zero = R.coerce(0)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if c == zero:
            continue
        found = index.divisor(m, support(m))
        if found is None:
            rem[m] = c
            continue
        lm, g = found
        q = _mono_quot(m, lm)
        factor = R.div(c, g.terms[lm])
        for m2, c2 in g.terms.items():
            if m2 == lm:
                continue
            mm = tuple(map(add, q, m2))
            if mm not in work:
                heapq.heappush(heap, (key(mm), mm))
            work[mm] = R.sub(work.get(mm, zero), R.mul(factor, c2))
    out = Polynomial(ring, rem)
    if rem:
        # terms pop largest first, so the first one kept is the lead
        out._lead = next(iter(rem))
    return out


def s_polynomial(f, g):
    """(L/lt(f)) f - (L/lt(g)) g with L the lcm of the leading monomials and
    lt the leading term, built in one pass over the terms of each; the two
    leading terms cancel exactly and are skipped."""
    R = f.ring.coeff
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    one, zero = R.coerce(1), R.coerce(0)
    qf, cf = _mono_quot(lcm, lf), R.div(one, f.terms[lf])
    out = {tuple(map(add, qf, m)): R.mul(cf, c) for m, c in f.terms.items() if m != lf}
    qg, cg = _mono_quot(lcm, lg), R.div(one, g.terms[lg])
    for m, c in g.terms.items():
        if m != lg:
            m = tuple(map(add, qg, m))
            out[m] = R.sub(out.get(m, zero), R.mul(cg, c))
    return Polynomial(f.ring, out)


def groebner_basis(gens, budget=DEFAULT_BUDGET):
    """Reduced Groebner basis of the ideal generated by gens.

    Raises BudgetExceeded if more than `budget` S-pairs are processed; a
    pair counts when it is popped, also when a criterion skips it.
    """
    ring = gens[0].ring if gens else None
    if ring is not None and not ring.coeff.is_field:
        raise ValueError("Groebner bases require field coefficients")
    # the basis is the polynomials of the index's entries, in order; each
    # S-polynomial is reduced by the index, and its remainder added to it
    index = DivisorIndex(g.monic() for g in gens)
    leads = index.entries
    if not leads:
        return []
    # degs[k] is the weighted degree of leads[k]'s monomial
    weights = ring.weights
    degs = [ring.wdeg(lm) for _, lm, _ in leads]
    # normal selection: pop the pair of least lcm degree, keyed once when
    # the pair is made; (i, j) breaks ties.  The lcm of coprime leads is
    # their product, so its degree is the sum of theirs; the lcm itself is
    # formed only for a pair that is popped and not coprime
    heap = []
    live = set()

    def add_pairs(t):
        mask_t, lead_t, _ = leads[t]
        deg_t = degs[t]
        for k in range(t):
            mask_k, lead_k, _ = leads[k]
            if mask_k & mask_t:
                deg = sum(map(mul, map(max, lead_k, lead_t), weights))
            else:
                deg = degs[k] + deg_t
            heapq.heappush(heap, (deg, k, t))
            live.add((k, t))

    for t in range(1, len(leads)):
        add_pairs(t)
    spent = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        live.discard((i, j))
        spent += 1
        if spent > budget:
            raise BudgetExceeded(f"S-pair budget {budget} exhausted")
        mask_i, mask_j = leads[i][0], leads[j][0]
        if not mask_i & mask_j:
            continue  # coprime leading monomials: S-poly reduces to zero
        # chain criterion; mask_i | mask_j is the support mask of the lcm
        lcm = _mono_lcm(leads[i][1], leads[j][1])
        outside = ~(mask_i | mask_j)
        if any(k != i and k != j and not mk & outside and _mono_divides(lk, lcm)
               and (min(i, k), max(i, k)) not in live
               and (min(j, k), max(j, k)) not in live
               for k, (mk, lk, _) in enumerate(leads)):
            continue
        r = normal_form(s_polynomial(leads[i][2], leads[j][2]), index)
        if r:
            index.add(r.monic())
            degs.append(ring.wdeg(leads[-1][1]))
            add_pairs(len(leads) - 1)
    return reduce_basis([g for _, _, g in leads])


def reduce_basis(G):
    """Minimal, fully inter-reduced monic basis, deterministically sorted."""
    G = [g.monic() for g in G if g]
    G.sort(key=lambda g: g.ring.mono_cmp_key(g.leading_monomial()), reverse=True)
    minimal = DivisorIndex()
    for g in G:
        lm = g.leading_monomial()
        if minimal.divisor(lm, g.ring.support_mask(lm)) is None:
            minimal.add(g)
    out = []
    for _, lm, g in minimal.entries:
        # a tail term, and every term its reduction makes, lies below lm, so
        # g's own entry divides none of them and only the others reduce it
        tail = normal_form(Polynomial(g.ring, {m: c for m, c in g.terms.items()
                                               if m != lm}), minimal)
        out.append(Polynomial(g.ring, {lm: g.terms[lm], **tail.terms}))
        out[-1]._lead = lm
    out.sort(key=lambda g: g.ring.mono_cmp_key(g.leading_monomial()), reverse=True)
    return out


def ideal_dimension(gb):
    """Krull dimension of ring/I from a Groebner basis of I; -1 for the unit ideal.

    It is the pole order at t = 1 of the Hilbert series of the leading-term
    ideal.  dim R/I equals dim R/in(I) for any global term order (Bayer &
    Stillman 1992), so this also holds for inhomogeneous I.
    """
    if not gb:
        raise ValueError("an empty basis carries no ring: pass the zero "
                         "polynomial of the ring for the zero ideal")
    return _leading_term_series(gb, gb[0].ring, 0).dimension()


# ----------------------------------------------------------------------
# Hilbert series


class HilbertSeries:
    """The rational function numer / prod (1 - t^d), d in denom_degs, with
    its power series truncated at degree `truncation`; `numer` is a
    coefficient list, index = degree."""

    def __init__(self, numer, denom_degs, truncation):
        self.numer = list(numer)
        self.denom_degs = tuple(sorted(denom_degs))
        self.truncation = truncation
        self.coeffs = _expand_rational(self.numer, self.denom_degs, truncation)

    def scaled(self, k):
        return HilbertSeries([k * c for c in self.numer], self.denom_degs,
                             self.truncation)

    def dimension(self):
        """Krull dimension of a graded quotient with this series: the pole
        order at t = 1; -1 for the zero series.  Each factor 1 - t^d has a
        simple zero at t = 1, so cancelling common factors leaves it
        unchanged."""
        if not any(self.numer):
            return -1               # unit ideal: empty spectrum
        numer, order = self.numer, len(self.denom_degs)
        while (q := _divide_one_minus_t_power(numer, 1)) is not None:
            numer, order = q, order - 1
        return order

    def truncated(self, N):
        if N > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return self.coeffs[:N + 1]

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.truncation == other.truncation
                and self.coeffs == other.coeffs)

    def first_difference(self, other):
        N = min(self.truncation, other.truncation)
        return next((k for k in range(N + 1) if self.coeffs[k] != other.coeffs[k]), None)

    def closed_form_str(self):
        num = _poly_in_t_str(self.numer)
        if not self.denom_degs:
            return num
        den = "*".join(f"(1 - t^{d})" for d in self.denom_degs)
        if len(self.numer) > 1 or self.numer[0] != 1:
            return f"({num})/({den})"
        return f"1/({den})"

    def __repr__(self):
        return f"HilbertSeries({self.closed_form_str()})"


def _poly_in_t_str(coeffs):
    bits = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            bits.append(str(c))
        else:
            mono = "t" if k == 1 else f"t^{k}"
            bits.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(bits) if bits else "0"


def _expand_rational(numer, denom_degs, N):
    coeffs = list(numer[:N + 1]) + [0] * max(0, N + 1 - len(numer))
    for d in denom_degs:
        # multiply by 1/(1 - t^d): prefix-sum with stride d
        for k in range(d, N + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs[:N + 1]


def _divide_one_minus_t_power(numer, d):
    """numer / (1 - t^d) as a coefficient list, or None if it is not a
    polynomial.  Past deg numer the expansion repeats with period d, so it
    is a polynomial exactly when its last d coefficients up to deg numer
    vanish; [0] for the zero polynomial."""
    n = max((k for k, c in enumerate(numer) if c), default=0)
    e = _expand_rational(numer, [d], n)
    if any(e[max(0, n - d + 1):]):
        return None
    return e[:max(1, n - d + 1)]


def _monomial_ideal_numerator(leads, weights):
    """Numerator of the Hilbert series of R/(leads) over prod (1 - t^w),
    without trailing zeros.

    Bigatti's pivot recursion (JPAA 119, 1997): for a pivot p = x_i^e,
    N(I) = N(I + (p)) + t^wdeg(p) N(I : p).  x_i is the variable found in
    the most generators that are not pure powers, and e is the median of
    its exponents there.  A minimal generator that is not a pure power has
    a smaller x_i exponent than any pure power x_i^a in I, so p is not in I
    and both I + (p) and I : p are smaller ideals to recurse on.
    """
    leads = _minimal_monomials(leads)
    if any(not any(m) for m in leads):
        return [0]  # unit ideal
    mixed = [m for m in leads if sum(1 for e in m if e) > 1]
    if not mixed:
        # pairwise disjoint supports: prod (1 - t^wdeg(m))
        out = [1]
        for m in leads:
            out = _add_shifted(out, [-c for c in out],
                               sum(a * w for a, w in zip(m, weights)))
        return out
    counts = [sum(1 for m in mixed if m[i]) for i in range(len(weights))]
    i = counts.index(max(counts))
    exps = sorted(m[i] for m in mixed if m[i])
    e = exps[len(exps) // 2]
    p = tuple(e if k == i else 0 for k in range(len(weights)))
    n_sum = _monomial_ideal_numerator(leads + [p], weights)
    n_colon = _monomial_ideal_numerator(
        [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in leads], weights)
    return _add_shifted(n_sum, n_colon, e * weights[i])


def _minimal_monomials(monos):
    """The minimal generators of the monomial ideal that monos generate."""
    out, masks = [], []
    bits = [1 << i for i in range(len(monos[0]))] if monos else []
    for m in sorted(set(monos), key=sum):
        mask = sum(compress(bits, m))     # as in PolyRing.support_mask
        outside = ~mask
        if not any(not k_mask & outside and _mono_divides(k, m)
                   for k_mask, k in zip(masks, out)):
            out.append(m)
            masks.append(mask)
    return out


def _add_shifted(a, b, shift):
    """a + t^shift * b as coefficient lists, trailing zeros dropped."""
    out = a + [0] * max(0, len(b) + shift - len(a))
    for k, c in enumerate(b):
        out[k + shift] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _leading_term_series(gb, ring, truncation):
    """Hilbert series of ring/(leading monomials of gb), with the common
    (1 - t^d) factors of its closed form cancelled."""
    numer = _monomial_ideal_numerator([g.leading_monomial() for g in gb if g],
                                      ring.weights)
    # cancel largest d first; a division that fails cannot succeed after
    # further exact divisions, so one pass does
    denom = []
    for d in sorted(ring.weights, reverse=True):
        q = _divide_one_minus_t_power(numer, d)
        if q is None:
            denom.append(d)
        else:
            numer = q
    return HilbertSeries(numer, denom, truncation)


def hilbert_series(gens_or_gb, ring=None, truncation=40, is_groebner=False):
    """Hilbert series of ring/(gens) for homogeneous generators.

    Accepts either raw generators (a Groebner basis is computed) or an
    already-computed basis with is_groebner=True.  With an empty generator
    list, `ring` must be supplied.
    """
    if gens_or_gb:
        ring = gens_or_gb[0].ring
    elif ring is None:
        raise ValueError("zero ideal needs an explicit ring")
    for g in gens_or_gb:
        if not g.is_homogeneous():
            raise ValueError(f"inhomogeneous generator: {g}")
    gb = list(gens_or_gb) if is_groebner else groebner_basis(gens_or_gb)
    return _leading_term_series(gb, ring, truncation)
