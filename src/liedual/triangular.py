"""The height-triangular solve of the unipotent centralizer ideal.

The generator of the ideal at a root of height k has weighted degree
D = 2(k - 1).  It is linear in the variables of weight D, through the layer
ad(e): g_{k-1} -> g_k, and every other monomial in it is a product of
lighter variables.  Where every layer has full rank (Kostant, Amer. J.
Math. 81, 1959, over Q; at most primes also mod p) the degrees can be
solved one at a time: each pivot variable becomes a polynomial in the free
ones, and the coordinate ring of the centralizer is the polynomial ring on
the free variables.  A layer that drops rank mod p (a torsion prime) leaves
rows without a linear part.  The ring is then H_*(Omega K; F_p), a connected
graded Hopf algebra, so by Borel's structure theorem (Ann. Math. 57, 1953)
those rows span pure powers x^(p^k), the leftovers, and the ring is
k[free]/(leftovers).  A leftover u_i^q is kept as its cap (i, q), and the
solve's products keep only the monomials below the caps found so far
(`commalg.Substitution`, the one memoised monomial map, and under it
`commalg.product`, the loop under every product of a capped `PolyRing`).

Polynomials here are {exponent tuple: coefficient} dicts in the variables
of the ideal's ring.
"""

from .commalg import BudgetExceeded, Polynomial, Substitution
from .intlinalg import LinSpan


def triangular_solve(uring, gens, budget):
    """(images, free, caps, generators): the image of each variable of
    uring in k[free variables], the free variables in index order, a cap
    (i, q) for each pure power u_i^q of a free variable that the ideal
    holds, by degree, and the variables that the reduced Groebner basis of
    the ideal makes generators, by degree, then index.  The ideal of gens is
    generated by the pivots' u_i - image and those powers, so the quotient
    is k[free]/(u_i^q), and the images hold only monomials below the caps
    (`commalg.below`).

    The degrees go up one at a time.  The images solved so far are
    substituted into the products (a `commalg.Substitution` that maps each
    pivot once it is solved, one unit of budget per product;
    BudgetExceeded), the linear parts are row-reduced, and each
    pivot is solved.  Every linear key sorts above every product key, so
    the rows whose pivot is a product span the rows without a linear part.
    By Borel's theorem they span pure powers: as many monomials as rows,
    each a power of one variable, else AssertionError.  From then on the
    products and this degree's pivot images drop every term they divide.

    The images of weight D are then final: a later cap u_i^q has degree
    q w_i > D and divides no monomial of degree D.  The generators of
    degree D, a basis of m/(m^2 + I) there, m the ideal of the variables
    (graded Nakayama), are read off them.  Modulo m^2 the ideal is spanned
    in degree D by the linear parts of the echelon rows.  In weighted revlex
    only the later variables of weight D sort below a variable x of weight
    D, so x leads an element of the reduced basis exactly when the ideal
    holds x + (later variables of weight D), that is, when x's image depends
    on theirs.  The generators are the variables of weight D, in index
    order, that lead nothing and are independent of those linear parts and
    of each other.
    """
    R, n = uring.coeff, uring.nvars
    one, zero = R.coerce(1), R.coerce(0)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    images = [{unit: one} for unit in units]
    # bit i of value.mapped is set once variable i is solved as a pivot,
    # and bit i of value.capped once u_i has a leftover
    value = Substitution(uring, images, R, {(0,) * n: one}, [], budget)
    value.mapped = 0
    by_degree = {}
    for g in gens:
        # the ideal is homogeneous, so one term gives a generator's degree
        by_degree.setdefault(uring.wdeg(next(iter(g.terms))), []).append(g)
    generators = []
    # the top weight has no generators of its own degree: it is all free
    for D in sorted(set(by_degree) | set(uring.weights)):
        # a row is keyed (1, variable) on its linear part, which sorts above
        # every (0, monomial) of the substituted products
        span = LinSpan(R)
        for g in by_degree.get(D, ()):
            row = {}
            for m, c in g.terms.items():
                if sum(m) == 1:
                    row[1, m] = c
                    continue
                try:
                    terms = value(m)
                except BudgetExceeded as e:
                    raise BudgetExceeded(f"triangular solve: {e}") from None
                for m2, c2 in terms.items():
                    row[0, m2] = R.add(row.get((0, m2), zero), R.mul(c, c2))
            span.add(row)
        left = [row for (linear, _), row in span.rows.items() if not linear]
        new = {m for row in left for _, m in row}
        if len(new) != len(left) or any(
                mask & (mask - 1) for mask in map(uring.support_mask, new)):
            shown = ", ".join(str(Polynomial(uring, {m: c for (_, m), c in row.items()}))
                              for row in left)
            raise AssertionError(f"the rows of degree {D} without a linear part, "
                                 f"{shown}, span no pure powers (Borel's theorem)")
        for m in sorted(new, key=uring.mono_cmp_key, reverse=True):
            bit = uring.support_mask(m)
            value.capped |= bit
            value.caps.append((bit.bit_length() - 1, max(m)))
        # a stored row is zero at the pivots stored before it, so the rows
        # are solved last to first
        for (linear, mp), row in reversed(span.rows.items()):
            if not linear:
                continue
            scale = R.div(R.neg(one), row[1, mp])
            image = {}
            for (linear, m), c in row.items():
                if m == mp or m in new:
                    continue
                c = R.mul(scale, c)
                for m2, c2 in (images[m.index(1)] if linear else {m: one}).items():
                    image[m2] = R.add(image.get(m2, zero), R.mul(c, c2))
            i = mp.index(1)
            images[i] = {m: c for m, c in image.items() if c}
            value.mapped |= 1 << i
        layer = [i for i, w in enumerate(uring.weights) if w == D]
        later, linear = LinSpan(R), LinSpan(R)
        leads = {i for i in reversed(layer) if not later.add(images[i])}
        for row in span.rows.values():
            # a row whose pivot is a product has no linear part
            linear.add({k: c for k, c in row.items() if k[0]})
        generators += [i for i in layer
                       if i not in leads and linear.add({(1, units[i]): one})]
    return (images, [i for i in range(n) if not value.mapped >> i & 1],
            value.caps, generators)
