"""The height-triangular solve of the unipotent centralizer ideal.

The generator of the ideal at a root of height k has weighted degree
D = 2(k - 1).  It is linear in the variables of weight D, through the layer
ad(e): g_{k-1} -> g_k, and every other monomial in it is a product of
lighter variables.  Where every layer has full rank (Kostant, Amer. J.
Math. 81, 1959, over Q; at most primes also mod p) the degrees can be
solved one at a time: each pivot variable becomes a polynomial in the free
ones, and the coordinate ring of the centralizer is the polynomial ring on
the free variables.  A layer that drops rank leaves a row without a linear
part, and the caller presents the ring some other way.

Polynomials here are {exponent tuple: coefficient} dicts in the variables
of the ideal's ring.
"""

from operator import add

from .commalg import BudgetExceeded
from .intlinalg import LinSpan


def triangular_solve(uring, gens, budget):
    """The image of each variable of uring in k[free variables], modulo
    the ideal of gens, and the free variables in index order; None if a
    layer drops rank.

    The degrees go up one at a time.  The images solved so far are
    substituted into the products (_MonomialImages, one unit of budget per
    product; BudgetExceeded), the linear parts are row-reduced, and each
    pivot is solved.
    """
    R, n = uring.coeff, uring.nvars
    one, zero = R.coerce(1), R.coerce(0)
    images = [{tuple(int(j == i) for j in range(n)): one} for i in range(n)]
    value = _MonomialImages(uring, images, budget)
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.total_degree(), []).append(g)
    for D in sorted(by_degree):
        # a row is keyed (1, variable) on its linear part, which sorts above
        # every (0, monomial) of the substituted products
        span = LinSpan(R)
        for g in by_degree[D]:
            row = {}
            for m, c in g.terms.items():
                if sum(m) == 1:
                    row[1, m] = c
                    continue
                for m2, c2 in value(m).items():
                    row[0, m2] = R.add(row.get((0, m2), zero), R.mul(c, c2))
            span.add(row)
        if len(span.rows) < len(by_degree[D]) or not all(p[0] for p in span.rows):
            return None
        # a stored row is zero at the pivots stored before it, so the rows
        # are solved last to first
        for (_, mp), row in reversed(span.rows.items()):
            scale = R.div(R.neg(one), row[1, mp])
            image = {}
            for (linear, m), c in row.items():
                if m == mp:
                    continue
                c = R.mul(scale, c)
                for m2, c2 in (images[m.index(1)] if linear else {m: one}).items():
                    image[m2] = R.add(image.get(m2, zero), R.mul(c, c2))
            i = mp.index(1)
            images[i] = {m: c for m, c in image.items() if c}
            value.pivots |= 1 << i
    return images, [i for i in range(n) if not value.pivots >> i & 1]


class _MonomialImages:
    """Called on a monomial m, its image: m itself when no solved pivot
    divides it, else the image of its last pivot factor times the image
    of the rest.  Entries are memoised for one solve (an object, not a
    recursive closure, so the memo goes with the solve's frame); each
    product formed costs one unit of budget."""

    def __init__(self, uring, images, budget):
        self.uring, self.images, self.budget = uring, images, budget
        self.one = uring.coeff.coerce(1)
        self.pivots = 0         # bit i set once variable i is solved
        self.memo, self.spent = {}, 0

    def __call__(self, m):
        hit = self.uring.support_mask(m) & self.pivots
        if not hit:
            return {m: self.one}
        v = self.memo.get(m)
        if v is None:
            self.spent += 1
            if self.spent > self.budget:
                raise BudgetExceeded(
                    f"triangular solve: product budget {self.budget} exhausted")
            k = hit.bit_length() - 1
            v = self.memo[m] = _product(self(m[:k] + (m[k] - 1,) + m[k + 1:]),
                                        self.images[k], self.uring.coeff)
        return v


def _product(a, b, R):
    """The product of two polynomials."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = tuple(map(add, m1, m2)), R.mul(c1, c2)
            out[m] = R.add(out[m], c) if m in out else c
    return {m: c for m, c in out.items() if c}


def values_at(images, point, R):
    """The value of each polynomial of images at the point."""
    out = []
    for image in images:
        total = R.coerce(0)
        for m, c in image.items():
            for x, k in zip(point, m):
                for _ in range(k):
                    c = R.mul(c, x)
            total = R.add(total, c)
        out.append(total)
    return out


def generator_variables(uring, gens, images, truncation):
    """The variables of weight <= truncation that the reduced Groebner
    basis of the ideal makes generators, read off the solved images.

    Within degree D the weighted revlex order puts below a variable x of
    weight D only the later variables of weight D.  So x leads an element
    of the reduced basis exactly when the ideal holds x + (later variables
    of weight D), that is, when x's image depends on theirs.  The
    generators of degree D are the variables of weight D, in index order,
    that lead nothing and are independent of the linear parts of the
    degree-D generators of the ideal and of each other (graded Nakayama,
    as in the Buchberger path of centralizer._extract_presentation).
    """
    R, n = uring.coeff, uring.nvars
    one = R.coerce(1)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    linear = {}
    for g in gens:
        linear.setdefault(g.total_degree(), []).append(
            {m: c for m, c in g.terms.items() if sum(m) == 1})
    out = []
    for D in sorted({w for w in uring.weights if w <= truncation}):
        layer = [i for i, w in enumerate(uring.weights) if w == D]
        later, leads = LinSpan(R), set()
        for i in reversed(layer):
            if not later.add(images[i]):
                leads.add(i)
        span = LinSpan(R)
        for vec in linear.get(D, ()):
            span.add(vec)
        for i in layer:
            if i not in leads and span.add({units[i]: one}):
                out.append(i)
    return out
