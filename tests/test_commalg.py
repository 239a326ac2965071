import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liedual import (GF, QQ, ZZ, BorelCoordinates, BudgetExceeded,
                     HilbertSeries, Ideal, PolyRing, build_chevalley,
                     centralizer_ideal, groebner_basis, hilbert_series,
                     ideal_dimension, invariant_factors, load_datum,
                     normal_form, parse_polynomial, principal_e,
                     ring_from_name, smith_normal_form)
from liedual.centralizer import peel_unipotent, present_centralizer
from liedual.commalg import (DivisorIndex, Polynomial, Substitution, below,
                             _divide_one_minus_t_power, _minimal_monomials,
                             _mono_divides, _mono_lcm, _mono_quot,
                             _monomial_ideal_numerator, reduce_basis,
                             s_polynomial)
from liedual.intlinalg import determinant
from liedual.rings import RingMismatchError

from reference import mat_mul

RQ = PolyRing(QQ, ("x", "y", "z"))
R5 = PolyRing(GF(5), ("x", "y", "z"))


@st.composite
def polys(draw, ring=RQ, maxdeg=3):
    n = len(ring.names)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, maxdeg)) for _ in range(n))
        c = draw(st.integers(-9, 9))
        if ring.coeff.name.startswith("F_"):
            c = c % 5
        terms[exps] = c
    out = ring.zero()
    for exps, c in terms.items():
        out = out + ring.monomial(exps, ring.coeff.coerce(c))
    return out


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == RQ.zero()
    assert f * RQ.one() == f


@settings(max_examples=60, deadline=None)
@given(polys())
def test_str_parse_round_trip(f):
    assert parse_polynomial(RQ, str(f)) == f


@settings(max_examples=60, deadline=None)
@given(polys(R5), polys(R5))
def test_str_parse_round_trip_mod_p(f, g):
    assert parse_polynomial(R5, str(f * g)) == f * g


@pytest.mark.parametrize("text", ["x y", "2 3", "-", "x -", "x*", "*x",
                                  "x + + y", "3/0", "(x)"])
def test_parse_refuses_what_the_grammar_does_not_derive(text):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_polynomial(RQ, text)


@pytest.mark.parametrize("text", ["1/5*x", "x - 2/15", "3/10*x^2"])
def test_parse_refuses_a_coefficient_the_prime_field_cannot_hold(text):
    with pytest.raises(ValueError, match="is not in F_5"):
        parse_polynomial(R5, text)
    # the value, not the spelling, decides: 1/5 * 5 is 1
    assert parse_polynomial(R5, "1/5*5*x") == parse_polynomial(R5, "x")


@pytest.mark.parametrize("name", ["FF7", "F__7", "F_F_7"])
def test_ring_from_name_refuses_a_malformed_prime_field(name):
    with pytest.raises(ValueError, match="unknown ring"):
        ring_from_name(name)
    assert ring_from_name("F7") == ring_from_name("F_7") == GF(7)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_leading_monomial_multiplicative(f, g):
    if not f or not g:
        return
    lm = (f * g).leading_monomial()
    expected = tuple(a + b for a, b in
                     zip(f.leading_monomial(), g.leading_monomial()))
    assert lm == expected


def test_weighted_order_respects_degree():
    R = PolyRing(QQ, ("u", "v"), weights=(2, 10))
    f = R.gen("u") ** 6 + R.gen("v")
    # u^6 has weight 12 > 10, so it leads
    assert f.leading_monomial() == (6, 0)
    assert R.wdeg((6, 0)) == 12


def test_normal_form_detects_membership():
    x, y, z = RQ.gens()
    gens = [x * x + y * y - RQ.one(), x - y]
    gb = groebner_basis(gens)
    rng = random.Random(7)
    for _ in range(25):
        f = RQ.zero()
        for g in gens:
            pick = [t for t in [x, y, z, RQ.one()] ]
            mult = pick[rng.randrange(4)].scale(Fraction(rng.randrange(-3, 4)))
            f = f + mult * g
        assert not normal_form(f, gb)
    assert normal_form(x * y * z + RQ.one(), gb)


def test_groebner_is_confluent():
    x, y, z = RQ.gens()
    gb = groebner_basis([x * y - z, y * z - x, x * z - y])
    for i, f in enumerate(gb):
        for g in gb[i + 1:]:
            assert not normal_form(s_polynomial(f, g), gb)


def test_groebner_deterministic():
    x, y, z = RQ.gens()
    gens = [x ** 2 + y, y ** 2 + z, z ** 2 + x]
    a = [str(p) for p in groebner_basis(gens)]
    b = [str(p) for p in groebner_basis(list(gens))]
    assert a == b


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_groebner_basis_does_not_depend_on_the_generator_order(data):
    """The reduced basis is unique, so a pair the heap or the chain
    criterion wrongly drops shows as a difference between two orders, or
    as an S-polynomial of the result that does not reduce to zero.  Each
    element's carried leading monomial is the one a scan gives."""
    gens = data.draw(small_ideals())
    gb = groebner_basis(gens)
    assert all(g.leading_monomial() == scanned_lead(g) for g in gb)
    shuffled = data.draw(st.permutations(gens))
    assert [str(g) for g in gb] == [str(g) for g in groebner_basis(shuffled)]
    for i, f in enumerate(gb):
        for g in gb[i + 1:]:
            assert not normal_form(s_polynomial(f, g), gb)


# ----------------------------------------------------------------------
# the divisor index against a plain first-divisor scan


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def plain_division(f, basis):
    """Reference remainder: take the largest remaining term, reduce it by
    the first basis element whose leading monomial divides it, else move it
    to the remainder; no masks, no heap."""
    R = f.ring.coeff
    zero = R.coerce(0)
    leads = [(g.leading_monomial(), g) for g in basis if g]
    work, rem = dict(f.terms), {}
    while work:
        m = min(work, key=f.ring.mono_cmp_key)
        c = work.pop(m)
        for lm, g in leads:
            if divides(lm, m):
                q = tuple(a - b for a, b in zip(m, lm))
                factor = R.div(c, g.terms[lm])
                for m2, c2 in g.terms.items():
                    if m2 != lm:
                        mm = tuple(a + b for a, b in zip(q, m2))
                        v = R.sub(work.get(mm, zero), R.mul(factor, c2))
                        if v == zero:
                            work.pop(mm, None)
                        else:
                            work[mm] = v
                break
        else:
            rem[m] = c
    return rem


def plain_reduce_basis(G):
    """Reference for reduce_basis: the minimal leads by a plain divisor
    filter, each tail reduced by plain_division."""
    key = G[0].ring.mono_cmp_key
    G = sorted((g.monic() for g in G if g), key=lambda g: key(g.leading_monomial()),
               reverse=True)
    minimal = []
    for g in G:
        if not any(divides(h.leading_monomial(), g.leading_monomial())
                   for h in minimal):
            minimal.append(g)
    out = [Polynomial(g.ring, plain_division(g, minimal[:i] + minimal[i + 1:])).monic()
           for i, g in enumerate(minimal)]
    return sorted(out, key=lambda g: key(g.leading_monomial()), reverse=True)


@st.composite
def division_problems(draw, fields=(GF(7),)):
    """A basis and a polynomial built from multiples of it, in a ring of
    3, 5 or 72 variables over one of the fields, weighted or not.  Monomials
    live on a few variables drawn once per problem; with 72 variables one of
    them is the last, so the support masks reach past bit 64."""
    nvars = draw(st.sampled_from([3, 5, 72]))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    ring = PolyRing(draw(st.sampled_from(fields)), [f"x{i}" for i in range(nvars)],
                    weights)
    pool = draw(st.sets(st.integers(0, nvars - 1), min_size=1, max_size=4))
    pool = sorted(pool | {nvars - 1})

    def monomial():
        exps = [0] * nvars
        for i in draw(st.lists(st.sampled_from(pool), max_size=4)):
            exps[i] += 1
        return tuple(exps)

    def poly(max_terms):
        return Polynomial(ring, {monomial(): draw(st.integers(1, 6))
                                 for _ in range(draw(st.integers(1, max_terms)))})

    basis = [poly(3) for _ in range(draw(st.integers(1, 6)))]
    f = poly(4)
    for g in basis:
        if draw(st.booleans()):
            f = f + poly(2) * g
    return basis, f


@settings(max_examples=200, deadline=None)
@given(division_problems())
def test_masked_division_matches_the_plain_first_divisor_scan(case):
    basis, f = case
    expect = plain_division(f, basis)
    assert normal_form(f, basis).terms == expect
    assert normal_form(f, DivisorIndex(basis)).terms == expect


@settings(max_examples=150, deadline=None)
@given(division_problems())
def test_reduce_basis_matches_the_plain_divisor_filter(case):
    basis, _ = case
    assert ([str(g) for g in reduce_basis(basis)]
            == [str(g) for g in plain_reduce_basis(basis)])


def product_form_s_polynomial(f, g):
    """The S-polynomial as two monomial multiples and a difference."""
    ring, R = f.ring, f.ring.coeff
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    one = R.coerce(1)
    return (ring.monomial(_mono_quot(lcm, lf), R.div(one, f.terms[lf])) * f
            - ring.monomial(_mono_quot(lcm, lg), R.div(one, g.terms[lg])) * g)


@settings(max_examples=100, deadline=None)
@given(division_problems(fields=(GF(7), QQ)))
def test_s_polynomial_matches_the_product_form(case):
    basis, f = case
    polys = [g for g in basis + [f] if g]
    for g in polys:
        for h in polys:
            assert s_polynomial(g, h).terms == product_form_s_polynomial(g, h).terms


def scanned_lead(p):
    """The leading monomial of p by a scan of all its terms."""
    return min(p.terms, key=p.ring.mono_cmp_key)


@settings(max_examples=100, deadline=None)
@given(division_problems(fields=(GF(7), QQ)))
def test_carried_leading_monomials_match_a_scan(case):
    # monic() and normal_form() hand their result a leading monomial without
    # scanning it; a wrong one would silently corrupt every criterion
    basis, f = case
    R = f.ring.coeff
    polys = [g for g in basis + [f] if g]
    out = [normal_form(f, basis)]
    out += [normal_form(g, basis[:i] + basis[i + 1:]) for i, g in enumerate(basis)]
    out += [s_polynomial(g, h) for g in polys for h in polys]
    for g in polys:
        lc = g.terms[scanned_lead(g)]
        monic = g.monic()
        if lc == 1:
            assert monic is g
        else:
            assert monic.terms == {m: R.div(c, lc) for m, c in g.terms.items()}
        out.append(monic)
    for p in out:
        if p:
            assert p.leading_monomial() == scanned_lead(p)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimal_monomials_match_the_plain_divisor_filter(data):
    nvars = data.draw(st.sampled_from([2, 4, 70]))
    pool = sorted(data.draw(st.sets(st.integers(0, nvars - 1), max_size=4))
                  | {nvars - 1})
    monos = []
    for _ in range(data.draw(st.integers(1, 8))):
        exps = [0] * nvars
        for i in data.draw(st.lists(st.sampled_from(pool), max_size=4)):
            exps[i] += 1
        monos.append(tuple(exps))
    expect = {m for m in monos
              if not any(k != m and divides(k, m) for k in monos)}
    got = _minimal_monomials(monos)
    assert len(got) == len(expect) and set(got) == expect
    assert [sum(m) for m in got] == sorted(sum(m) for m in got)


def test_support_masks_past_64_variables():
    ring = PolyRing(QQ, [f"x{i}" for i in range(70)])
    m = tuple(int(i in (0, 65, 69)) for i in range(70))
    assert ring.support_mask(m) == 1 | 1 << 65 | 1 << 69
    x = ring.gens()
    g = x[65] * x[69] - x[0]            # lead x65*x69, mask bits 65 and 69
    assert normal_form(x[0] * x[65], [g]) == x[0] * x[65]
    assert normal_form(x[65] ** 2 * x[69], [g]) == x[0] * x[65]


def unipotent_or_laurent_ideal(name, ring_name):
    d = load_datum(name)
    ring = ring_from_name(ring_name)
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, ring)
    return centralizer_ideal(principal_e(basis, d, ring), coords)


# (size, sha256 of the newline-joined str of the reduced basis, first 16 hex
# digits), pinned from the plain-scan implementation (commit a02ccf0): the
# masks may only skip work, never change a basis
GROEBNER_DIGESTS = {
    ("SL4", "Q"): (3, "76e4dd122d4eab2a"),
    ("Sp6", "F5"): (9, "3430c35afbbac0a5"),
    ("Spin7", "Q"): (9, "d603733ea662f354"),
    ("SL5", "F7"): (6, "15824c9321f6f97e"),
    ("Spin8", "F5"): (11, "ea919a9253eeb686"),
    ("F4", "F5"): (48, "f2144a518745c735"),
    ("E6sc", "F7"): (59, "76a8bb18a9ed7463"),
    ("G2", "F2"): (4, "fd99cb95e0e13035"),
    ("Spin8", "F2"): (8, "2ff78defb7aadeaf"),
    ("F4", "F3"): (22, "7d76804cff7bc301"),
    ("SO7", "F2"): (19, "a440306cd2648a48"),        # Laurent ideals
    ("G2", "F3"): (5, "66a732b771a2f2d4"),
}


@pytest.mark.parametrize("name,ring_name", sorted(GROEBNER_DIGESTS))
def test_reduced_groebner_basis_digest(name, ring_name):
    gb = groebner_basis(unipotent_or_laurent_ideal(name, ring_name).ideal.gens)
    digest = hashlib.sha256("\n".join(map(str, gb)).encode()).hexdigest()[:16]
    assert (len(gb), digest) == GROEBNER_DIGESTS[name, ring_name]


@pytest.mark.parametrize("name,ring_name,pairs", [
    ("Spin8", "F5", 120),
    ("SO7", "F2", 406),                                 # Laurent
    ("F4", "F5", 2080),                                 # 65 choose 2
    ("E6sc", "F7", 3570),                               # 85 choose 2
    ("G2", "F3", 45),               # Laurent, weights 1 and 2 height; 10 choose 2
])
def test_s_pair_count(name, ring_name, pairs):
    # every pair made is popped and counted, so the count pins how the
    # basis grew, with the coprime and chain criteria in place
    gens = unipotent_or_laurent_ideal(name, ring_name).ideal.gens
    groebner_basis(gens, budget=pairs)
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, budget=pairs - 1)

def test_budget_counts_pairs_that_a_criterion_skips():
    # the three pairs are coprime and none is reduced, yet each one counts
    x, y, z = RQ.gens()
    with pytest.raises(BudgetExceeded):
        groebner_basis([x, y, z], budget=2)
    assert [str(g) for g in groebner_basis([x, y, z], budget=3)] == ["z", "y", "x"]


def test_groebner_matches_sympy():
    sympy = pytest.importorskip("sympy")
    sx, sy, sz = sympy.symbols("x y z")
    cases = [
        [RQ.gen("x") ** 2 + RQ.gen("y") ** 2 - RQ.one(), RQ.gen("x") - RQ.gen("y")],
        [RQ.gen("x") * RQ.gen("y") - RQ.gen("z"),
         RQ.gen("y") * RQ.gen("z") - RQ.gen("x")],
        [RQ.gen("x") ** 3 - 2 * RQ.gen("x") * RQ.gen("y"),
         RQ.gen("x") ** 2 * RQ.gen("y") - 2 * RQ.gen("y") ** 2 + RQ.gen("x")],
    ]
    sympy_cases = [
        [sx ** 2 + sy ** 2 - 1, sx - sy],
        [sx * sy - sz, sy * sz - sx],
        [sx ** 3 - 2 * sx * sy, sx ** 2 * sy - 2 * sy ** 2 + sx],
    ]
    for ours, theirs in zip(cases, sympy_cases):
        gb = groebner_basis(ours)
        ref = sympy.groebner(theirs, sx, sy, sz, order="grevlex")
        got = sorted(str(p.monic()) for p in gb)
        # re-parse sympy's output into our ring so both sides are printed
        # under the same monomial order
        want = sorted(
            str(parse_polynomial(RQ, str(p).replace("**", "^")).monic())
            for p in ref.exprs)
        assert got == want


def test_ideal_dimension():
    x, y, z = RQ.gens()
    assert ideal_dimension(groebner_basis([RQ.one()])) == -1
    assert ideal_dimension(groebner_basis([x])) == 2
    assert ideal_dimension(groebner_basis([x, y])) == 1
    assert ideal_dimension(groebner_basis([x * y])) == 2
    assert ideal_dimension([RQ.zero()]) == 3


def test_ideal_dimension_refuses_an_empty_basis():
    # [] carries no ring to count the variables of
    with pytest.raises(ValueError, match="no ring"):
        ideal_dimension([])


def subset_dimension(gb):
    """Reference Krull dimension of ring/I from a Groebner basis: the largest
    variable subset S with no leading monomial supported inside S."""
    leads = [g.leading_monomial() for g in gb]
    if any(not any(lm) for lm in leads):
        return -1
    n = gb[0].ring.nvars
    for size in range(n, -1, -1):
        for S in combinations(range(n), size):
            if not any(all(i in S for i, e in enumerate(lm) if e) for lm in leads):
                return size


@st.composite
def small_ideals(draw):
    """Generators of a random ideal of a weighted ring in 2-5 variables over
    QQ or F_p, inhomogeneous ones (constant terms, mixed degrees) allowed."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    coeff = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    ring = PolyRing(coeff, [f"x{i}" for i in range(n)], weights)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = ring.zero()
        for _ in range(draw(st.integers(1, 3))):
            exps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            g = g + ring.monomial(exps, coeff.coerce(draw(st.integers(-3, 3))))
        gens.append(g)
    if draw(st.integers(0, 9)) == 0:
        gens.append(ring.one())
    return gens


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_ideal_dimension_matches_subset_search(gens):
    gb = groebner_basis(gens)
    if not gb:
        return                  # every generator drew a zero coefficient
    assert ideal_dimension(gb) == subset_dimension(gb)


@pytest.mark.parametrize("name,ring_name", [
    ("SL3", "Q"), ("G2", "F2"), ("Sp4", "F5"),          # homogeneous, unipotent
    ("G2", "Q"), ("PGL3", "F5"), ("SL4", "F7"), ("Spin5", "F7"),
    ("Sp4", "F2"), ("SO5", "F2"), ("G2", "F3"),         # Laurent, bad primes
])
def test_ideal_dimension_matches_subset_search_on_centralizers(name, ring_name):
    d = load_datum(name)
    ring = ring_from_name(ring_name)
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, ring)
    cid = centralizer_ideal(principal_e(basis, d, ring), coords)
    gb = groebner_basis(cid.ideal.gens)
    dim = ideal_dimension(gb)
    assert dim == subset_dimension(gb)
    if cid.mode == "unipotent":
        assert dim == d.derived_rank
        # the pole order of the series, as present_centralizer reads it
        hs = hilbert_series(gb, ring=cid.ideal.ring, truncation=40,
                            is_groebner=True)
        assert hs.dimension() == dim
    else:
        assert dim > d.derived_rank


def _poly_t_divide(a, b):
    """Exact long division of integer polynomials in t; None if not exact."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not a:
        return [0]
    if len(a) < len(b):
        return None
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        if a[k + len(b) - 1] % b[-1]:
            return None
        q[k] = a[k + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            a[k + j] -= q[k] * y
    if any(a):
        return None
    return q


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=8), st.integers(1, 6),
       st.integers(0, 3), st.booleans())
@example([1, 0, -1, 0, 0], 2, 0, False)     # trailing zeros on a quotient
@example([1, 1], 3, 0, False)               # d > deg numer
def test_division_by_one_minus_t_power_matches_long_division(q, d, zeros, multiple):
    """numer is q * (1 - t^d) when `multiple`, else q itself, then padded
    with trailing zeros; both cases go to the long-division oracle."""
    numer = q
    if multiple:
        numer = [0] * (len(q) + d)
        for k, c in enumerate(q):
            numer[k] += c
            numer[k + d] -= c
    numer = numer + [0] * zeros
    assert _divide_one_minus_t_power(numer, d) == _poly_t_divide(
        numer, [1] + [0] * (d - 1) + [-1])


def restarting_cancellation(numer, weights):
    """Reference cancellation of common (1 - t^d) factors: after each exact
    division, start again from the largest remaining degree."""
    denom = list(weights)
    changed = True
    while changed:
        changed = False
        for d in sorted(set(denom), reverse=True):
            q = _poly_t_divide(numer, [1] + [0] * (d - 1) + [-1])
            if q is not None:
                numer = q
                denom.remove(d)
                changed = True
                break
    return numer, sorted(denom)


@st.composite
def weighted_monomial_ideals(draw, max_gens=5):
    """Weights of 1-5 variables (repeats likely) and monomial generators."""
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=max_gens))
    return weights, leads


def last_generator_numerator(leads, weights):
    """Reference Hilbert numerator of R/(leads) over prod (1 - t^w), trailing
    zeros dropped: split on the last minimal generator g, with J the ideal
    of the others, N(I) = N(J) - t^wdeg(g) N(J : g)."""
    leads = sorted(set(leads))
    leads = [m for m in leads
             if not any(m != m2 and _mono_divides(m2, m) for m2 in leads)]
    if not leads:
        return [1]
    if any(not any(m) for m in leads):
        return [0]  # unit ideal
    g = leads[-1]
    rest = leads[:-1]
    n_rest = last_generator_numerator(rest, weights)
    colon = [_mono_quot(_mono_lcm(m, g), g) for m in rest]
    n_colon = last_generator_numerator(colon, weights)
    w = sum(e * wt for e, wt in zip(g, weights))
    shifted = [0] * w + n_colon
    out = [0] * max(len(n_rest), len(shifted))
    for i, x in enumerate(n_rest):
        out[i] += x
    for i, x in enumerate(shifted):
        out[i] -= x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@settings(max_examples=300, deadline=None)
@given(weighted_monomial_ideals(max_gens=8))
@example(([1, 1], [(2, 0), (0, 3)]))                    # pure powers only
# x is the most frequent variable and also has the pure power x^3
@example(([1, 2, 1], [(3, 0, 0), (1, 1, 0), (2, 0, 1), (1, 0, 2)]))
@example(([2, 3], [(0, 0), (1, 2)]))                    # the unit ideal
@example(([1, 2, 3], []))                               # the zero ideal
# redundant and duplicate generators
@example(([1, 1, 2], [(1, 1, 0), (1, 1, 0), (2, 1, 1), (0, 2, 0), (0, 3, 1)]))
def test_pivot_numerator_matches_the_last_generator_split(case):
    weights, leads = case
    assert _monomial_ideal_numerator(leads, weights) == last_generator_numerator(
        leads, weights)


@settings(max_examples=300, deadline=None)
@given(weighted_monomial_ideals())
def test_one_pass_cancellation_matches_the_restarting_loop(case):
    weights, leads = case
    ring = PolyRing(QQ, [f"x{i}" for i in range(len(weights))], weights)
    # monomials are a Groebner basis of the ideal they generate
    hs = hilbert_series([ring.monomial(m) for m in leads], ring=ring,
                        truncation=10, is_groebner=True)
    assert (hs.numer, list(hs.denom_degs)) == restarting_cancellation(
        last_generator_numerator(leads, weights), weights)


def test_series_dimension_of_the_unit_ideal():
    hs = hilbert_series([RQ.one()], ring=RQ, truncation=10)
    assert hs.dimension() == ideal_dimension([RQ.one()]) == -1


def test_budget_exceeded():
    R = PolyRing(QQ, tuple("abcdef"))
    gens = []
    g = R.gens()
    for i in range(6):
        gens.append(g[i] ** 3 - g[(i + 1) % 6] * g[(i + 2) % 6] - g[(i + 3) % 6])
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, budget=5)


def test_hilbert_series_weighted_polynomial_ring():
    R = PolyRing(QQ, ("u", "v", "w"), weights=(2, 4, 10))
    hs = hilbert_series([], ring=R, truncation=40)
    # brute-force coefficient count
    for k in range(41):
        count = sum(1 for a in range(21) for b in range(11) for c in range(5)
                    if 2 * a + 4 * b + 10 * c == k)
        assert hs.coeffs[k] == count


def test_hilbert_series_of_quotient():
    R = PolyRing(QQ, ("u", "v", "w"), weights=(2, 4, 10))
    u = R.gen("u")
    hs = hilbert_series([u * u], ring=R, truncation=40)
    # (1 + t^2) / ((1 - t^4)(1 - t^10))
    ref = HilbertSeries([1, 0, 1], [4, 10], 40)
    assert hs.coeffs == ref.coeffs


def test_hilbert_series_scaled_and_first_difference():
    a = HilbertSeries([1], [2], 10)
    b = a.scaled(2)
    assert b.coeffs == [2 * c for c in a.coeffs]
    assert a.first_difference(b) == 0
    assert a.first_difference(a) is None


def test_ideal_wrapper_round_trip():
    x, y, z = RQ.gens()
    ideal = Ideal(RQ, [x * y - RQ.one(), z ** 2 - x])
    assert ideal_dimension(groebner_basis(ideal.gens)) == 1
    back = Ideal(RQ, [parse_polynomial(RQ, str(g)) for g in ideal.gens])
    assert sorted(str(g) for g in back.gens) == sorted(str(g) for g in ideal.gens)


@st.composite
def integer_matrices(draw):
    m = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(st.integers(-20, 20), min_size=m, max_size=m),
                         min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
# unless each round re-picks the smallest pivot, the entries of this one
# blow up and the reduction does not finish in a minute
@example([[-7, 0, 0, 12, -14, -7], [10, 15, -4, -7, -18, -2],
          [6, 0, -10, 0, 4, -6], [2, 0, 0, 0, -17, 14], [0, 0, -18, -10, -8, 9]])
def test_smith_normal_form_properties(rows):
    A = [list(r) for r in rows]
    U, D, V = smith_normal_form([list(r) for r in A])
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(determinant(U)) == abs(determinant(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # off-diagonal zero
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-15, 15), min_size=3, max_size=3),
                min_size=2, max_size=3))
def test_invariant_factors_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as snf
    ours = [d for d in invariant_factors([list(r) for r in rows]) if d]
    M = snf(sympy.Matrix(rows))
    theirs = sorted(abs(M[i, i]) for i in range(min(M.rows, M.cols)) if M[i, i])
    assert sorted(ours) == theirs


CAPPED = PolyRing(GF(2), ("x", "y"), (2, 4), caps=[(0, 2)])


def test_a_capped_ring_truncates_its_products():
    # F_2[x, y]/(x^2): x^2 is killed, xy is kept, and (x + y)^2 = y^2
    x, y = CAPPED.gens()
    assert x * x == CAPPED.zero()
    assert (x * y).terms == {(1, 1): 1}
    assert (x + y) ** 2 == y * y == CAPPED.monomial((0, 2))


def test_rings_that_differ_only_by_their_caps_are_different_rings():
    free = PolyRing(GF(2), ("x", "y"), (2, 4))
    assert free != CAPPED and hash(free) != hash(CAPPED)
    with pytest.raises(RingMismatchError, match=r"F_2\[x, y\] vs F_2\[x, y\]/\(x\^2\)"):
        free.gen("x") + CAPPED.gen("x")


def test_the_peel_stays_in_the_capped_target_ring():
    # G2 over F_2: the free ring is F_2[u2, u3, u6]/(u2^2).  U(images)^2
    # peeled there is the peel in the uncapped ring, truncated afterwards
    pres = present_centralizer(load_datum("G2"), GF(2))
    ring, pos = pres.free_ring, pres.coords.pos
    assert ring.caps == ((0, 2),)
    uncapped = PolyRing(ring.coeff, ring.names, ring.weights)

    def square(R):
        images = [Polynomial(R, image.terms) for image in pres.images]
        return peel_unipotent(pres.coords, list(zip(pos * 2, images * 2)), R)
    capped, full = square(ring), square(uncapped)
    assert all(u.ring == ring for u in capped)
    truncated = [{m: c for m, c in u.terms.items() if below(m, ring.caps)}
                 for u in full]
    assert [u.terms for u in capped] == truncated
    assert truncated != [u.terms for u in full]


# Q[x, y, z], and the map x -> y + z into it
XYZ = PolyRing(QQ, ("x", "y", "z"))
Y_PLUS_Z = {(0, 1, 0): 1, (0, 0, 1): 1}


def substitute_x(caps=(), budget=None):
    """x -> y + z, with y and z left unmapped, as the triangular solve maps a
    solved pivot and leaves the free variables."""
    sub = Substitution(XYZ, [Y_PLUS_Z, None, None], QQ, {(0, 0, 0): 1}, caps, budget)
    sub.mapped = 0b001
    return sub


def test_a_substitution_maps_an_unmapped_variable_to_itself():
    sub = substitute_x()
    assert sub((0, 2, 1)) == {(0, 2, 1): 1}
    assert sub((1, 1, 0)) == {(0, 2, 0): 1, (0, 1, 1): 1}


def test_a_cap_on_an_unmapped_variable_makes_the_monomial_zero():
    sub = substitute_x(caps=[(1, 2)])
    sub.capped = 0b010
    assert sub((0, 2, 0)) == {} and sub((1, 2, 0)) == {}
    assert sub((0, 1, 1)) == {(0, 1, 1): 1}


def test_a_substitution_truncates_its_products_by_the_caps():
    # (y + z)^2 = y^2 + 2yz + z^2, of which y^2 lies on the cap y^2
    assert substitute_x()((2, 0, 0)) == {(0, 2, 0): 1, (0, 1, 1): 2, (0, 0, 2): 1}
    assert substitute_x(caps=[(1, 2)])((2, 0, 0)) == {(0, 1, 1): 2, (0, 0, 2): 1}


def test_a_substitution_into_the_field_maps_the_empty_monomial_to_unit():
    # the point check's map: x -> 2, y -> 3 and a capped z -> 0
    unit = {(): 1}
    at = Substitution(XYZ, [{(): 2}, {(): 3}, {}], QQ, unit)
    assert at((0, 0, 0)) is unit
    assert at((2, 1, 0)) == {(): 12}
    assert at((1, 0, 1)) == {}


def test_a_repeated_call_forms_no_product():
    sub = substitute_x()
    first = sub((3, 1, 0))
    spent = sub.spent
    assert spent == 3
    # (2, 1, 0) was formed on the way to (3, 1, 0)
    assert sub((3, 1, 0)) is first and sub((2, 1, 0)) and sub.spent == spent


def test_a_substitution_exceeds_its_budget_exactly_past_its_bound():
    # x^3 is built from x^2, x and the unit: three products
    assert substitute_x(budget=3)((3, 0, 0))
    with pytest.raises(BudgetExceeded, match="product budget 2 exhausted"):
        substitute_x(budget=2)((3, 0, 0))
