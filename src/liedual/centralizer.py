"""Coordinates on the Borel of the dual group, centralizer ideals of the
regular nilpotent e, the equivariant element e^T with its specializations,
and graded presentations of the centralizer coordinate ring.

The Borel is parameterized as b = t * prod_alpha exp(u_alpha x_alpha) with
the positive roots in (height, lex) order; u_alpha carries degree
2*height(alpha) for the cocharacter grading.

A presentation comes from the height-triangular solve (``triangular``),
which writes the ring as k[free]/(leftovers).  Where every layer of ad(e)
keeps full rank there are no leftovers: the ring is polynomial on the free
variables and has no relations.  Where a layer drops rank, at a torsion
prime p, the ring is H_*(Omega K; F_p), a connected graded commutative Hopf
algebra of finite type, so as an algebra it is a tensor product of factors
k[x] and k[y]/(y^(p^k)) (Borel, Ann. Math. 57, 1953; Milnor-Moore, Ann.
Math. 81, 1965, Thm 7.11).  The solve returns each leftover, a pure power
u_i^q, as its cap (i, q), and the relations are read off the caps
(``_borel_relations``).  The presentation's free ring carries the caps, so
every product in it, and in the two copies of it where the Hopf tables
peel the group law, is already taken in k[free]/(leftovers).  The point
check of the solve and the Hopf tables' products map monomials through
``commalg.Substitution``, as the solve does.
"""

from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from math import lcm, prod
from operator import add

from .chevalley import LieElement, ad_kernel_dim, build_chevalley, principal_e
from .commalg import (DEFAULT_BUDGET, Ideal, PolyRing, Polynomial, Substitution,
                      below, hilbert_series)
from .intlinalg import LinSpan, tagged
from .rings import GF, QQ
from .triangular import triangular_solve


class BadPrimeError(ValueError):
    """The coefficient ring kills a simple coefficient of e (p | length ratio)."""


class PeelingError(RuntimeError):
    """Unipotent coordinates could not be read back, or are not integral."""


def _require_good_prime(d, ring):
    """BadPrimeError unless every squared coroot length is a unit of the ring."""
    if not all(ring.is_unit(ring.coerce(c)) for c in d.coroot_length_sq()):
        raise BadPrimeError(
            f"characteristic {ring.characteristic} divides the length ratio "
            f"{d.length_ratio()} of {d.name}")


# ----------------------------------------------------------------------
# the adjoint action of exp
#
# On a Chevalley basis ad(x_alpha)^k / k! is an integer matrix (Kostant's
# Z-form); basis.divided_powers gives all k by columns, walking the
# alpha-string through each x_beta.  adjoint_action scatters v along them
# over any ring; at the generic point a term kernel scatters exponent dicts.


def adjoint_action(basis, factors, v, ring):
    """Ad(exp(u_1 x_1) ... exp(u_m x_m)) v over the ring, for the factors
    [(root_1, u_1), ..., (root_m, u_m)].  They act right to left, each as
    v -> v + sum_k u^k ad(x_root)^k / k! v: the nonzero entries v_j are
    scattered along column j of the divided powers."""
    add, mul = ring.add, ring.mul
    for rt, u in reversed(factors):
        if not u:
            continue
        cols = basis.divided_powers(rt.coeffs)
        out, upow = list(v), [ring.coerce(1)]
        for j, x in enumerate(v):
            if x:
                for k, i, c in cols[j]:
                    while len(upow) <= k:
                        upow.append(mul(upow[-1], u))
                    out[i] = add(out[i], mul(upow[k], mul(c, x)))
        v = out
    return v


def _generic_action(coords, ring, target):
    """Ad(U) target at the generic point U = prod exp(u_alpha x_alpha), as
    one {exponent tuple: coefficient} dict per component.

    The factors act right to left and u_alpha is a fresh variable, so the
    factor of alpha sees only monomials free of u_alpha, and its k-th
    divided power writes u_alpha^k into each by setting one exponent."""
    add, mul = ring.coeff.add, ring.coeff.mul
    slots = [ring._index[nm] for nm in coords.u_names]
    v = [dict(x.terms) for x in target]
    if any(m[t] for w in v for m in w for t in slots):
        raise ValueError("the target of the generic point involves a u variable")
    for rt, t in reversed(list(zip(coords.pos, slots))):
        cols = coords.basis.divided_powers(rt.coeffs)
        # the terms before this factor, read while it writes into v
        for col, terms in [(col, list(w.items())) for col, w in zip(cols, v) if col and w]:
            for m, x in terms:
                head, tail = m[:t], m[t + 1:]
                for k, i, c in col:
                    mk, cx, w = head + (k,) + tail, mul(c, x), v[i]
                    w[mk] = add(w[mk], cx) if mk in w else cx
    return v


def _difference(ring, terms, p):
    """The polynomial with the given terms, minus p; reuses terms."""
    sub, neg = ring.coeff.sub, ring.coeff.neg
    for m, c in p.terms.items():
        terms[m] = sub(terms[m], c) if m in terms else neg(c)
    return Polynomial(ring, terms)


# ----------------------------------------------------------------------
# Borel coordinates


class BorelCoordinates:
    """Variable bookkeeping for b = t * prod exp(u_alpha x_alpha)."""

    def __init__(self, basis, coeff_ring):
        self.basis = basis
        self.coeff = coeff_ring
        self.pos = basis.datum.positive_roots()
        self.n = basis.datum.rank
        self.u_names = [f"u{i + 1}" for i in range(len(self.pos))]
        self.u_weights = [2 * rt.height for rt in self.pos]
        self.z_names = [f"z{k + 1}" for k in range(self.n)]
        self.zi_names = [f"zi{k + 1}" for k in range(self.n)]
        self.uring = PolyRing(coeff_ring, self.u_names, self.u_weights)
        self.bring = PolyRing(coeff_ring,
                              self.z_names + self.zi_names + self.u_names,
                              [1] * (2 * self.n) + self.u_weights)

    def root_weight_exponents(self, root, ring):
        """alpha(t) as the exponents of a z / zi monomial of the given ring."""
        exps = [0] * ring.nvars
        for k, z, zi in zip(range(self.n), self.z_names, self.zi_names):
            m = self.basis.pairing(root.coeffs, k)
            exps[ring._index[z if m >= 0 else zi]] = abs(m)
        return tuple(exps)


# ----------------------------------------------------------------------
# centralizer ideals


def _lie_vector(elem, ring):
    """Coefficient vector of a LieElement over a scalar ring, or as constants
    of a polynomial ring."""
    basis = elem.basis
    v = [ring.coerce(0)] * basis.dim
    for key, c in elem.coefficients.items():
        v[basis.key_index(key)] = ring.coerce(c)
    return v


class CentralizerIdeal:
    def __init__(self, ideal, mode, zcenter):
        self.ideal = ideal
        self.mode = mode          # "unipotent" | "laurent"
        self.zcenter = zcenter    # FiniteAbelianGroup for the split-off torus part


def centralizer_ideal(e, coords):
    """Component equations of Ad(b) e - e.

    Where the simple coefficients of e are units the torus is
    eliminated exactly (the simple components force alpha_i(t) = 1) and the
    result is a homogeneous ideal in the u_alpha alone, with the central
    factor reported separately.  Otherwise the full Laurent ideal in z, zi,
    u is returned.
    """
    basis = coords.basis
    datum = basis.datum
    g_center = datum.center()   # center of the group acting, alpha(t) = 1 locus
    r = datum.derived_rank
    simple_keys = [("x", tuple(int(j == i) for j in range(r))) for i in range(r)]
    units = all(coords.coeff.is_unit(coords.coeff.coerce(e.coefficients.get(k, 0)))
                for k in simple_keys)
    ring = coords.uring if units else coords.bring
    target = _lie_vector(e, ring)
    v = _generic_action(coords, ring, target)
    if units:
        return CentralizerIdeal(
            Ideal(ring, [_difference(ring, w, b) for w, b in zip(v, target)]),
            "unipotent", g_center)
    # bad prime: keep the torus variables.  The components of Ad(t) Ad(U) e
    # - e, then z_k * zi_k - 1; Ad(t) fixes the h components (which come
    # first in the basis) and scales each root component by alpha(t), a
    # monomial in the z and zi variables, adding its exponents to each term
    n = coords.n
    gens = [_difference(ring, v[k], target[k]) for k in range(n)]
    for i, rt in enumerate(coords.basis.roots, start=n):
        shift = coords.root_weight_exponents(rt, ring)
        gens.append(_difference(ring, {tuple(map(add, m, shift)): c
                                       for m, c in v[i].items()}, target[i]))
    for z, zi in zip(coords.z_names, coords.zi_names):
        gens.append(ring.gen(z) * ring.gen(zi) - ring.one())
    return CentralizerIdeal(Ideal(ring, gens), "laurent", g_center)


# ----------------------------------------------------------------------
# the equivariant element e^T = e + f


def f_form(d):
    """Matrix of the bilinear form f on the cocharacter basis (rational)."""
    theta = d.highest_root().coroot
    kil_tt = d.killing_form(theta, theta)
    B = d.cochar_basis
    n = d.rank
    return [[Fraction(-2 * d.killing_form(list(B[i]), list(B[j])), kil_tt)
             for j in range(n)] for i in range(n)]


def compute_nG(d):
    """Least positive n with n * f_form integral on the cocharacter lattice."""
    return lcm(*(x.denominator for row in f_form(d) for x in row))


class EquivariantElement:
    def __init__(self, datum, basis, e_part, f_matrix):
        self.datum = datum
        self.basis = basis
        self.e_part = e_part        # LieElement over QQ
        self.f_matrix = f_matrix    # rational, on the cocharacter basis


def build_eT(d):
    basis = build_chevalley(d.dual_datum())
    return EquivariantElement(d, basis, principal_e(basis, d, QQ), f_form(d))


def specialize_eT(eT, s):
    """Integer point of Spec R_T -> Lie element plus a regularity report.

    e^T(s) = e + h with e in the positive nilradical, so the t^r coefficient
    of det(t - ad e^T(s)) is the Weyl discriminant prod_alpha alpha(h) over
    all roots; the element is regular semisimple exactly when it is nonzero
    (Bourbaki, Lie VII, section 2).  The report carries dim ker(ad), the
    discriminant and that verdict.  s must have rank many coordinates.
    """
    basis = eT.basis
    r = eT.datum.rank
    if len(s) != r:
        raise ValueError(f"s has {len(s)} coordinates, not the rank {r}")
    h = [sum(eT.f_matrix[k][l] * s[l] for l in range(r)) for k in range(r)]
    coeffs = dict(eT.e_part.coefficients)
    coeffs.update((("h", k), c) for k, c in enumerate(h) if c)
    elem = LieElement(basis, coeffs, QQ)
    disc = QQ.coerce(prod(sum(basis.pairing(rt.coeffs, k) * c
                              for k, c in enumerate(h))
                          for rt in basis.roots))
    kdim = ad_kernel_dim(basis, elem, QQ)
    # independent path: a regular semisimple element has an r-dimensional
    # centralizer
    if disc and kdim != r:
        raise AssertionError(
            f"nonzero Weyl discriminant but dim ker ad = {kdim} != rank {r}")
    return elem, {"kernel_dim": kdim, "discriminant": disc,
                  "regular_semisimple": disc != 0}


# ----------------------------------------------------------------------
# monomials by degree


def monomials_of_degree(weights, D):
    """Exponent tuples of weighted degree exactly D, largest first in the
    term order: within one degree, increasing order of the reversed tuple."""
    if not weights:
        return [] if D else [()]
    *head, w = weights
    if not head:
        return [] if D % w else [(D // w,)]
    return [m + (e,) for e in range(D // w + 1)
            for m in monomials_of_degree(head, D - e * w)]


def standard_monomials(ring, caps, D):
    """The monomials of weighted degree D below the caps, in the order of
    monomials_of_degree."""
    return [m for m in monomials_of_degree(ring.weights, D) if below(m, caps)]


# ----------------------------------------------------------------------
# presentations


GENERATOR_NAMES = "ABCDEFGHJKLMNPQRSTUVWXY"


class CentralizerPresentation:
    def __init__(self, base, zcenter, generators, generator_reps, relations,
                 gen_ring, hilbert, hilbert_unipotent, krull_dim, free_ring,
                 images, coords):
        self.base = base                      # coefficient ring
        self.zcenter = zcenter                # FiniteAbelianGroup
        self.generators = generators          # [(name, degree)]
        self.generator_reps = generator_reps  # polynomials in the unipotent ring
        self.relations = relations            # monomials in the generator ring
        self.gen_ring = gen_ring              # PolyRing on the generator names
        self.hilbert = hilbert                # |Z| * series of the unipotent quotient
        self.hilbert_unipotent = hilbert_unipotent
        self.krull_dim = krull_dim
        # k[free]/(leftovers): the free variables of the solve, whose caps
        # (j, q) are the leftovers x_j^q (none without leftovers)
        self.free_ring = free_ring
        self.images = images                  # each u variable's image in free_ring
        self.coords = coords
        # _tensor_square(self), built on first use: U(a) U(b) is peeled once
        # per presentation, at the images in two copies of k[free]/(leftovers)
        self._tensor = None

    def to_document(self):
        return {
            "base": self.base.name,
            "zcenter": list(self.zcenter.invariant_factors),
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "relations": [str(r) for r in self.relations],
            "hilbert": {
                "series": list(self.hilbert.coeffs),
                "closed_form": self.hilbert.closed_form_str(),
            },
            "krull_dim": self.krull_dim,
        }


def present_centralizer(d, ring, truncation=40, budget=DEFAULT_BUDGET):
    """Graded presentation of the centralizer coordinate ring.

    Requires a field whose characteristic does not divide the squared
    length ratio (otherwise the torus reduction fails: BadPrimeError).
    The triangular solve writes the ring as k[free]/(leftovers), with
    leftovers only where a layer of ad(e) drops rank (torsion primes); they
    are pure powers u_i^q, returned as caps (i, q).  The solve also picks
    the generators; those of weight <= truncation are kept, and the
    relations are read off the caps (_borel_relations).  `budget` bounds
    the monomial products of the solve.
    """
    if not ring.is_field:
        raise ValueError("presentations need field coefficients")
    _require_good_prime(d, ring)
    basis = build_chevalley(d.dual_datum())
    coords = BorelCoordinates(basis, ring)
    e = principal_e(basis, d, ring)
    cid = centralizer_ideal(e, coords)
    if cid.mode != "unipotent":
        raise AssertionError("unit simple coefficients must give a unipotent ideal")
    uring = cid.ideal.ring
    images, free, caps, generators = triangular_solve(uring, cid.ideal.gens, budget)
    # the independent check is Ad(U)e = e through adjoint_action, which
    # shares only the Chevalley table with the solve, at a point of the
    # solution: u_i = 0 on the free variables of the leftovers (none has a
    # constant term), u_i = i + 2 on the other free ones
    held = {i for i, _ in caps}
    at = Substitution(uring, [{} if i in held else {(): ring.coerce(i + 2)}
                              for i in range(uring.nvars)], ring, {(): ring.coerce(1)})
    point = [reduce(ring.add, (ring.mul(c, x) for m, c in image.items()
                               for x in at(m).values()), ring.coerce(0))
             for image in images]
    target = _lie_vector(e, ring)
    if adjoint_action(basis, list(zip(coords.pos, point)), target, ring) != target:
        raise AssertionError(
            "the solved pivots do not centralize e at the check point")
    # k[free]/(leftovers), in the ring of the free variables
    free_ring = PolyRing(ring, [uring.names[i] for i in free],
                         [uring.weights[i] for i in free],
                         [(free.index(i), q) for i, q in caps])
    images = [Polynomial(free_ring, {tuple(m[i] for i in free): c
                                     for m, c in image.items()}) for image in images]
    # the leftovers are pure powers with disjoint supports, their own
    # reduced Groebner basis: prod (1 - t^deg) / prod (1 - t^w)
    powers = [free_ring.monomial([q * (k == j) for k in range(free_ring.nvars)])
              for j, q in free_ring.caps]
    hs_u = hilbert_series(powers, ring=free_ring, truncation=truncation,
                          is_groebner=True)
    chosen = [i for i in generators if uring.weights[i] <= truncation]
    gens = [(GENERATOR_NAMES[k], uring.weights[i]) for k, i in enumerate(chosen)]
    gen_ring = PolyRing(ring, [n for n, _ in gens], [dg for _, dg in gens])
    rels = _borel_relations(d.name, caps, uring, chosen, gen_ring, truncation)
    # sanity: the presented algebra reproduces the quotient's Hilbert series,
    # which catches a generator added or missed
    if caps and hilbert_series(rels, ring=gen_ring, truncation=truncation,
                               is_groebner=True).coeffs != hs_u.coeffs:
        raise AssertionError(
            "presentation does not reproduce the quotient Hilbert series")
    return CentralizerPresentation(
        base=ring, zcenter=cid.zcenter, generators=gens,
        generator_reps=[uring.gen(uring.names[i]) for i in chosen],
        relations=rels, gen_ring=gen_ring,
        hilbert=hs_u.scaled(cid.zcenter.torsion_order), hilbert_unipotent=hs_u,
        krull_dim=hs_u.dimension(),
        free_ring=free_ring, images=images, coords=coords)


def _borel_relations(name, caps, uring, chosen, gen_ring, truncation):
    """The relations of degree <= truncation, by degree, then generator.
    Each cap (i, q) of the solve, the leftover u_i^q in the variables of
    uring, must have q = p^k, k >= 1 (Borel's theorem), and u_i must be a
    generator u_chosen[k] unless it is heavier than the truncation; u_i^q
    gives G^q.  Anything else raises: a check of the theorem, with no
    fallback.  Monomials in distinct generators are their own reduced
    Groebner basis."""
    p = gen_ring.coeff.characteristic
    found = []
    for i, q in caps:
        w = uring.weights[i]
        # q > 1 is a power of the prime p exactly when it divides p^q
        if min(p, q) < 2 or pow(p, q, q) or (w <= truncation and i not in chosen):
            raise AssertionError(
                f"{name} over {gen_ring.coeff.name}: the leftovers' basis holds "
                f"{uring.gen(uring.names[i]) ** q}, not a p^k-th power of a "
                "generator (Borel's theorem)")
        if q * w <= truncation:
            found.append((q * w, chosen.index(i), q))
    return [gen_ring.monomial([q if i == k else 0 for i in range(gen_ring.nvars)])
            for _, k, q in sorted(found)]


# ----------------------------------------------------------------------
# unipotent coordinate peeling and the brute-force group check


def peel_unipotent(coords, factors, ring):
    """Canonical coordinates u_alpha of a product U of exp factors
    [(root, u), ...] over ring, QQ, GF(p) or a polynomial ring over either,
    read off the one column v = Ad(U) 2rho^vee (U acts simply transitively
    on 2rho^vee + n: Kostant, Amer. J. Math. 81, 1959).  In (height, lex)
    order, with the earlier factors stripped, the x_alpha component of v is
    -<alpha, 2rho^vee> u_alpha = -2 height(alpha) u_alpha.  v must end at
    2rho^vee.  The heights divide, so the peel runs over Q: over F_p the
    values are lifted to ints, and the coordinates reduced mod p
    (reduce_integral; the law is integral).  The lift keeps a ring's caps:
    truncation is a ring map, and commutes with the divisions."""
    target = ring
    if isinstance(ring, PolyRing) and ring.coeff != QQ:
        ring = PolyRing(QQ, ring.names, ring.weights, ring.caps)
        factors = [(rt, Polynomial(ring, u.terms)) for rt, u in factors]
    elif not isinstance(ring, PolyRing):
        ring = QQ
    basis = coords.basis
    # 2rho^vee, the sum of the positive coroots, on the h_k (which come first)
    rho2 = [ring.coerce(sum(h)) for h in zip(*(basis.coroot_h(rt.coeffs)
                                                for rt in coords.pos))]
    rho2 += [ring.coerce(0)] * (basis.dim - len(rho2))
    v = adjoint_action(basis, factors, rho2, ring)
    out = []
    for rt, w in zip(coords.pos, coords.u_weights):
        u = ring.div(ring.neg(v[basis.key_index(("x", rt.coeffs))]), ring.coerce(w))
        out.append(u)
        v = adjoint_action(basis, [(rt, ring.neg(u))], v, ring)
    if v != rho2:
        raise PeelingError("not Ad(U) 2rho^vee of a canonical unipotent product")
    return out if ring == target else reduce_integral(out, target)


def reduce_integral(values, ring):
    """Peeled Q values, rationals or polynomials, in the ring (a field, or a
    polynomial ring over one on the same variables); PeelingError unless
    every value or coefficient is an int (the group law is defined over Z)."""
    out = []
    for x in values:
        terms = x.terms if isinstance(x, Polynomial) else {(): x}
        if any(type(c) is not int for c in terms.values()):
            raise PeelingError(f"the peeled coordinate {x} is not integral")
        out.append(Polynomial(ring, {m: ring.coeff.coerce(c) for m, c in terms.items()})
                   if isinstance(x, Polynomial) else ring.coerce(x))
    return out


class GroupPoints:
    """F_p points of the centralizer inside the Borel, with the group law."""

    def __init__(self, d, p):
        self.p = p
        self.d = d
        self.ring = ring = GF(p)
        _require_good_prime(d, ring)
        self.basis = build_chevalley(d.dual_datum())
        self.coords = BorelCoordinates(self.basis, ring)
        self.e_vec = _lie_vector(principal_e(self.basis, d, ring), ring)

    def _root_value(self, rt, z):
        val = 1
        for k in range(self.coords.n):
            val = val * pow(z[k], self.basis.pairing(rt.coeffs, k), self.p) % self.p
        return val

    def is_point(self, z, u):
        v = adjoint_action(self.basis, list(zip(self.coords.pos, u)), self.e_vec,
                           self.ring)
        for rt in self.basis.roots:
            i = self.basis.key_index(("x", rt.coeffs))
            if (self._root_value(rt, z) * v[i] - self.e_vec[i]) % self.p:
                return False
        return not any(v[:self.coords.n])     # the h components, reduced mod p

    def enumerate(self):
        n, npos = self.coords.n, len(self.coords.pos)
        pts = []
        for z in iter_product(range(1, self.p), repeat=n):
            for u in iter_product(range(self.p), repeat=npos):
                if self.is_point(z, u):
                    pts.append((z, u))
        return pts

    def multiply(self, a, b):
        """(t1 U1)(t2 U2) = (t1 t2) (t2^{-1} U1 t2) U2."""
        z1, u1 = a
        z2, u2 = b
        z3 = tuple(x * y % self.p for x, y in zip(z1, z2))
        conj = [self.ring.div(val, self._root_value(rt, z2))
                for rt, val in zip(self.coords.pos, u1)]
        factors = list(zip(self.coords.pos * 2, conj + list(u2)))    # U(conj) U(u2)
        return (z3, tuple(peel_unipotent(self.coords, factors, self.ring)))

    def inverse(self, a):
        z, u = a
        zinv = tuple(pow(x, -1, self.p) for x in z)
        # (t U)^{-1} = t^{-1} (t U^{-1} t^{-1}); conjugation rescales coords
        inv = [(rt, -val) for rt, val in zip(self.coords.pos, u)]
        uinv = peel_unipotent(self.coords, inv[::-1], self.ring)
        conj = [self.ring.div(val, self._root_value(rt, zinv))
                for rt, val in zip(self.coords.pos, uinv)]
        return (zinv, tuple(conj))


def brute_force_group_check(d, p):
    """Enumerate the F_p points and verify the group axioms on them."""
    gp = GroupPoints(d, p)
    pts = gp.enumerate()
    ptset = set(pts)
    identity = (tuple([1] * gp.coords.n), tuple([0] * len(gp.coords.pos)))
    report = {
        "prime": p,
        "count": len(pts),
        "identity": identity in ptset,
        "closed": True,
        "inverses": True,
        "commutative": True,
    }
    for a in pts:
        inv = gp.inverse(a)
        if inv not in ptset or gp.multiply(a, inv) != identity:
            report["inverses"] = False
    for i, a in enumerate(pts):
        for b in pts[i:]:
            ab = gp.multiply(a, b)
            ba = gp.multiply(b, a)
            if ab not in ptset:
                report["closed"] = False
            if ab != ba:
                report["commutative"] = False
    report["pass"] = all(report[k] for k in
                         ("identity", "closed", "inverses", "commutative"))
    return report


# ----------------------------------------------------------------------
# coproduct and truncated distributions (over a field)


def _tensor_square(pres):
    """(ring, left, right, law): the ring of two commuting copies, a (left)
    and b (right), of k[free]/(leftovers), whose caps are the free ring's
    in each copy, and three tables, each a `commalg.Substitution` from the
    generator ring into it: the generators to their images in copy a, in
    copy b, and under the group law on B_e x B_e, the coordinates of
    U(a) U(b) peeled at the images of the u variables in the two copies, in
    that capped ring.  Checks the counit.  Built once per presentation and
    kept on it."""
    if pres._tensor is not None:
        return pres._tensor
    free_ring = pres.free_ring
    ring = PolyRing(pres.base, [f"{nm}{c}" for c in "ab" for nm in free_ring.names],
                    free_ring.weights * 2,
                    free_ring.caps + tuple((j + free_ring.nvars, q)
                                           for j, q in free_ring.caps))
    copies = [[_rename_into(image, ring, copy) for image in pres.images]
              for copy in (0, 1)]
    law = peel_unipotent(pres.coords, list(zip(pres.coords.pos * 2,
                                               copies[0] + copies[1])), ring)
    variables = [rep.leading_monomial().index(1) for rep in pres.generator_reps]
    for (gname, _), i in zip(pres.generators, variables):
        # counit: the right side at 0 (the terms free of copy b) must return
        # the generator's image in copy a
        at_zero = {m: c for m, c in law[i].terms.items()
                   if not any(m[free_ring.nvars:])}
        if at_zero != copies[0][i].terms:
            raise AssertionError(f"counit fails on {gname}")
    pres._tensor = ring, *(Substitution(pres.gen_ring,
                                        [values[i].terms for i in variables],
                                        pres.base, ring.one().terms, ring.caps)
                           for values in (*copies, law))
    return pres._tensor


def _rename_into(poly, big_ring, copy):
    """poly in copy 0 or 1 of its ring's variables, the first or second
    half of big_ring's."""
    start = copy * poly.ring.nvars
    head = (0,) * start
    tail = (0,) * (big_ring.nvars - start - poly.ring.nvars)
    return Polynomial(big_ring, {head + m + tail: c for m, c in poly.terms.items()})


def _standard_coproducts(pres, N):
    """Delta of each relation-standard monomial of degree <= N, as
    {monomial: {(mono_a, mono_b): coefficient}} in the tensor basis of
    pairs of such monomials; also returns those monomials by degree.
    ValueError when N exceeds the presentation's truncation, above which
    it lacks generators and relations."""
    truncation = pres.hilbert_unipotent.truncation
    if N > truncation:
        raise ValueError(f"degree {N} exceeds the presentation's truncation "
                         f"{truncation}")
    # the relations are pure powers G^q: the generator ring's caps
    caps = [next((k, q) for k, q in enumerate(r.leading_monomial()) if q)
            for r in pres.relations]
    basis_by_deg = {D: standard_monomials(pres.gen_ring, caps, D)
                    for D in range(0, N + 1, 2)}
    ring, left, right, image_products = _tensor_square(pres)
    table = {}
    for D, monos in basis_by_deg.items():
        # the two factors share no variable and are each below the caps, so
        # their product is too
        span = LinSpan(pres.base)
        for da in range(0, D + 1, 2):
            for ma in basis_by_deg[da]:
                for mb in basis_by_deg[D - da]:
                    span.add(tagged((Polynomial(ring, left(ma))
                                     * Polynomial(ring, right(mb))).terms,
                                    (ma, mb), pres.base))
        for m in monos:
            combo = span.express(image_products(m))
            if combo is None:
                raise PeelingError(f"coproduct extraction failed at {m}")
            table[m] = combo
    return basis_by_deg, table


def coproduct_on_generators(pres):
    """Delta on each presentation generator, as an element of the tensor
    square of the generator algebra ({} without generators); verifies the
    counit on the way."""
    top = max((dg for _, dg in pres.generators), default=0)
    _, table = _standard_coproducts(pres, top)
    n = len(pres.generators)
    return {gname: table[tuple(int(j == i) for j in range(n))]
            for i, (gname, _) in enumerate(pres.generators)}


def truncated_dist(pres, N):
    """Multiplication table of the graded dual up to degree N.

    Basis: generator monomials (as exponent tuples on the presentation
    generators) of weighted degree <= N that are standard for the relation
    ideal; product structure constants are read off the coproduct.  N must
    not exceed the presentation's truncation (ValueError).
    """
    basis_by_deg, table = _standard_coproducts(pres, N)
    by_pair = {}
    for m, combo in table.items():
        for pair, c in combo.items():
            by_pair.setdefault(pair, {})[m] = c

    def dual_product(ma, mb):
        """delta_ma * delta_mb = sum_m coeff * delta_m."""
        return dict(by_pair.get((ma, mb), {}))
    return {"basis_by_degree": basis_by_deg, "dual_product": dual_product}
