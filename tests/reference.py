"""References that only the tests use: matrix products, ad(v) as a full
matrix, the simple-sum nilpotent e1, the kernel search for the relations
of a presentation, products in normal form modulo a Groebner basis, the
all-columns peel of unipotent coordinates and the universal group law of
U with its coassociativity check.  The library works on sparse columns,
reads the relations off the leftovers, truncates products by the caps of
its pure powers, peels one column over Q and peels the group law only at
the images of the u variables in two copies of the centralizer's ring;
these spell the same objects out the long way, for the tests to compare
with it and to hand to sympy."""

from liedual.centralizer import (PeelingError, adjoint_action, monomials_of_degree,
                                 peel_unipotent, reduce_integral)
from liedual.chevalley import LieElement
from liedual.commalg import (PolyRing, Polynomial, groebner_basis, hilbert_series,
                             normal_form)
from liedual.intlinalg import LinSpan, identity, tagged
from liedual.rings import QQ, ZZ


def mat_mul(A, B, ring=QQ):
    add, mul = ring.add, ring.mul
    zero = ring.coerce(0)
    m = len(B[0])
    B_nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for A_row in A:
        row = [zero] * m
        for a, B_row in zip(A_row, B_nonzero):
            if a:
                for j, b in B_row:
                    row[j] = add(row[j], mul(a, b))
        out.append(row)
    return out


def mat_vec(A, v, ring=QQ):
    add, mul = ring.add, ring.mul
    zero = ring.coerce(0)
    v_nonzero = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for A_row in A:
        acc = zero
        for j, x in v_nonzero:
            a = A_row[j]
            if a:
                acc = add(acc, mul(a, x))
        out.append(acc)
    return out


def ad_matrix(basis, elem):
    """Matrix of ad(elem) on columns indexed by the basis keys."""
    ring = elem.ring
    zero = ring.coerce(0)
    M = [[zero] * basis.dim for _ in range(basis.dim)]
    for key, coeff in elem.coefficients.items():
        for j, col in enumerate(basis.ad_columns(key)):
            for i, c in col:
                M[i][j] = ring.add(M[i][j], ring.mul(coeff, ring.coerce(c)))
    return M


def simple_sum_e1(basis, ring=ZZ):
    """e1 = sum of the simple root generators, all coefficients 1."""
    r = basis.datum.derived_rank
    return LieElement(basis, {("x", tuple(int(j == i) for j in range(r))): 1
                              for i in range(r)}, ring)


def bracket_from_tables(basis, key1, key2):
    """[key1, key2] read off the integer tables of the basis, by the rules
    of the chevalley module docstring: <beta, h_k> for [h_k, x_beta],
    N(a, b) for [x_a, x_b] and the coroot of a for [x_a, x_-a]."""
    (t1, a), (t2, b) = key1, key2
    if t1 == "h" and t2 == "h":
        return {}
    if t1 == "h" or t2 == "h":
        sign, k, root = (1, a, b) if t1 == "h" else (-1, b, a)
        c = sign * basis.pairing(root, k)
        return {("x", root): c} if c else {}
    if all(x == -y for x, y in zip(a, b)):
        return {("h", k): c for k, c in enumerate(basis.coroot_h(a)) if c}
    n = basis.N(a, b)
    return {("x", tuple(x + y for x, y in zip(a, b))): n} if n else {}


def pure_powers(ring, caps):
    """The monomials x_j^q of ring, one for each cap (j, q)."""
    return [ring.monomial([q * (k == j) for k in range(ring.nvars)])
            for j, q in caps]


class NormalProducts:
    """Product table: called on an exponent tuple m, the normal form modulo
    the Groebner basis gb of prod factors[i]^m[i], multiplied out one factor
    at a time and reduced after each; one is the empty product.  A normal
    form modulo a Groebner basis is unique, so this is the product reduced
    in any order; modulo pure powers it is the library's truncation by
    their caps."""

    def __init__(self, factors, gb, one):
        self.factors, self.gb, self.one = factors, gb, one

    def __call__(self, m):
        p = self.one
        for factor, e in zip(self.factors, m):
            for _ in range(e):
                p = normal_form(p * factor, self.gb)
        return p


def search_relations(gen_ring, product, hs_u, budget):
    """The relations, their reduced basis and the series of gen_ring/(rels):
    the kernel of gen_ring on a quotient with series hs_u, whose products of
    generators `product` gives, minimalised degree by degree.

    gen_ring/(rels) maps onto the quotient, so the relations found so far
    leave a kernel in degree D exactly when their series exceeds h_D there;
    other degrees are skipped.  A kernel row is a new relation when its
    normal form modulo the Groebner basis of the relations so far is nonzero
    (ideal membership), and that basis is recomputed with each new relation.
    """
    ring, truncation = gen_ring.coeff, hs_u.truncation
    rels, rel_gb = [], []
    hs_rel = hilbert_series(rel_gb, ring=gen_ring, truncation=truncation,
                            is_groebner=True)
    for D in range(2, truncation + 1, 2):
        if hs_rel.coeffs[D] <= hs_u.coeffs[D]:
            continue
        # kernel vectors: the linear dependencies among the product images
        span = LinSpan(ring)
        for m in monomials_of_degree(gen_ring.weights, D):
            span.add(tagged(product(m).terms, m, ring))
        for dep in span.dependencies():
            relpoly = Polynomial(gen_ring, dep)
            if normal_form(relpoly, rel_gb):
                rels.append(relpoly)
                rel_gb = groebner_basis(rels, budget)
        hs_rel = hilbert_series(rel_gb, ring=gen_ring, truncation=truncation,
                                is_groebner=True)
    return rels, rel_gb, hs_rel


def peel_all_columns(coords, factors, ring):
    """Canonical coordinates u_alpha of a product of exp factors
    [(root, u), ...] over the ring, read off the columns of the matrix M of
    its adjoint action.

    Processes positive roots in order; at each step reads u_alpha either
    from the h-component of M x_{-alpha} (equal to u_alpha h_alpha) or from
    the x_alpha-component of M h_k (equal to -u_alpha <alpha, h_k>), then
    strips the exp factor.  One of the two reads always has a unit integer
    to divide by.
    """
    basis = coords.basis
    n = coords.n
    cols = [adjoint_action(basis, factors, c, ring) for c in identity(basis.dim, ring)]
    out = []
    for rt in coords.pos:
        u = None
        # route A: h-component of M applied to x_{-alpha}
        col = basis.key_index(("x", tuple(-c for c in rt.coeffs)))
        for k, h in enumerate(basis.coroot_h(rt.coeffs)):
            h = ring.coerce(h)
            if ring.is_unit(h):
                u = ring.div(cols[col][k], h)
                break
        if u is None:
            # route B: x_alpha-component of M applied to h_k
            row = basis.key_index(("x", rt.coeffs))
            for k in range(n):
                pk = ring.coerce(-basis.pairing(rt.coeffs, k))
                if ring.is_unit(pk):
                    u = ring.div(cols[k][row], pk)
                    break
        if u is None:
            raise PeelingError(f"no unit read for root {rt.coeffs}")
        out.append(u)
        cols = [adjoint_action(basis, [(rt, ring.neg(u))], c, ring) for c in cols]
    if cols != identity(basis.dim, ring):
        raise PeelingError("matrix is not a canonical unipotent product")
    return out


def factors_of(coords, ring, prefix="u"):
    """The factors (alpha, prefix + index) of U = prod exp(u_alpha x_alpha)."""
    return [(rt, ring.gen(f"{prefix}{i + 1}"))
            for i, rt in enumerate(coords.pos)]


def law_ring(coords, prefixes):
    """A ring with one copy of the u variables per prefix (prefix + index)."""
    names = [f"{g}{i + 1}" for g in prefixes for i in range(len(coords.pos))]
    return PolyRing(coords.coeff, names, coords.u_weights * len(prefixes))


def group_law_coordinates(coords):
    """Universal product coordinates c_alpha(a, b) of U(a) * U(b), peeled in
    the law ring over Q and reduced into the coefficient ring."""
    ring = law_ring(coords, ("ga", "gb"))
    qring = PolyRing(QQ, ring.names, ring.weights)
    factors = factors_of(coords, qring, "ga") + factors_of(coords, qring, "gb")
    return ring, reduce_integral(peel_unipotent(coords, factors, qring), ring)


def map_into(poly, target_ring, assignment):
    """Ring map: each variable of poly's ring goes to a target polynomial."""
    out = target_ring.zero()
    for m, c in poly.terms.items():
        term = target_ring.const(c)
        for i, e in enumerate(m):
            if e:
                term = term * assignment[poly.ring.names[i]] ** e
        out = out + term
    return out


def verify_coassociativity(coords):
    """Associativity of the universal unipotent group law c(a, b).

    Composes the law polynomials and checks c(c(a,b), g) = c(a, c(b,g)) as
    polynomial identities in three sets of coordinates; this is the
    coordinate form of coassociativity of the coproduct built from the law.
    """
    ring2, law = group_law_coordinates(coords)
    ring = law_ring(coords, ("ga", "gb", "gc"))
    n, gens = len(coords.pos), ring.gens()
    a, b, g = gens[:n], gens[n:2 * n], gens[2 * n:]

    def c(x, y):
        values = dict(zip(ring2.names, x + y))
        return [map_into(p, ring, values) for p in law]
    return c(c(a, b), g) == c(a, c(b, g))
