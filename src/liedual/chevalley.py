"""Chevalley Z-form of the Lie algebra attached to a root datum.

The basis consists of h_k (one per row of the datum's cocharacter basis)
and x_beta (one per root).  Structure constants are integers:

    [h, x_beta]          = <beta, h> x_beta
    [x_beta, x_{-beta}]  = h_beta   (coroot of beta in the h-basis)
    [x_beta, x_gamma]    = N(beta, gamma) x_{beta+gamma},  |N| = p + 1

with signs fixed by the extraspecial-pair convention for the canonical
(height, lex) positive-root order.  Each basis fills three integer tables
once: the squared length (beta, beta) and the pairings <beta, h_k> of every
root, and N for every ordered pair of roots whose sum is a root.  Brackets,
ad matrices and the divided powers of ad(x_beta) all read these tables.
"""

from operator import add, mul, sub

from .intlinalg import is_integral, rank, solve_left_rows, to_int
from .rings import QQ, RingMismatchError, ZZ


class ChevalleyBasis:
    def __init__(self, datum):
        self.datum = datum
        self.roots = datum.roots()
        self.n = datum.rank
        self.dim = self.n + len(self.roots)
        self._root_index = {rt.coeffs: i for i, rt in enumerate(self.roots)}
        self._minus = {rt.coeffs: tuple(-x for x in rt.coeffs) for rt in self.roots}
        # (beta, beta) in the symmetrised form, sum_ij b_i d_i C_ij b_j
        d, C = datum.symmetrizer(), datum.cartan
        dC = [[di * c for c in row] for di, row in zip(d, C)]
        self._len_sq = {rt.coeffs: sum(b * sum(map(mul, row, rt.coeffs))
                                       for b, row in zip(rt.coeffs, dC))
                        for rt in self.roots}
        # <beta, h_k> for every root and every row k of the cocharacter basis
        self._pairing = {rt.coeffs: tuple(sum(map(mul, rt.vector, row))
                                          for row in datum.cochar_basis)
                         for rt in self.roots}
        # h-coordinates x of a coroot solve x * B = coroot.  One elimination
        # of B solves for every simple coroot; the coroot of beta is the
        # integer combination sum_i (2 b_i d_i / (beta, beta)) alpha_i^vee of
        # the simple ones, and x * B = coroot is checked in integers
        B = [list(row) for row in datum.cochar_basis]
        simple_h = solve_left_rows(B, [list(alpha) for alpha in datum.simple_coroots])
        if not is_integral(simple_h):
            raise AssertionError("simple coroot outside the cocharacter lattice")
        simple_h = to_int(simple_h)
        self._coroot_h = {}
        for rt in self.roots:
            cr = [divmod(2 * b * di, self._len_sq[rt.coeffs])
                  for b, di in zip(rt.coeffs, d)]
            x = [sum(c * xi[k] for (c, _), xi in zip(cr, simple_h))
                 for k in range(self.n)]
            if (any(r for _, r in cr)
                    or [sum(map(mul, x, col)) for col in zip(*B)] != list(rt.coroot)):
                raise AssertionError(
                    f"coroot of {rt.coeffs} outside the cocharacter lattice")
            self._coroot_h[rt.coeffs] = tuple(x)
        self._N = {}
        self._fill_structure_constants()
        self._divided = {}      # root -> divided_powers columns, filled on demand

    # -- basis bookkeeping -------------------------------------------------

    def basis_keys(self):
        return ([("h", k) for k in range(self.n)]
                + [("x", rt.coeffs) for rt in self.roots])

    def key_index(self, key):
        if key[0] == "h":
            return key[1]
        return self.n + self._root_index[key[1]]

    def pairing(self, coeffs, k):
        """<beta, h_k> for the root with the given simple-root coefficients."""
        return self._pairing[coeffs][k]

    # -- structure constants ----------------------------------------------

    def chain_p(self, a, b):
        """Largest p with b - p*a a root."""
        p = 0
        cur = tuple(map(sub, b, a))
        while cur in self._root_index:
            p += 1
            cur = tuple(map(sub, cur, a))
        return p

    def _fill_structure_constants(self):
        """N for every ordered pair, one positive sum gamma at a time in
        (height, lex) order.  The first pair a + b = gamma with a before b is
        extraspecial; every other pair of gamma is computed from it and from
        pairs with a lower sum.  Each pair (a, b) with c = -gamma fills the
        twelve entries of its triple a + b + c = 0: the cyclic identity
        N(a, b)/(c, c) = N(b, c)/(a, a) = N(c, a)/(b, b), antisymmetry and
        N(-x, -y) = -N(x, y)."""
        L, minus = self._len_sq, self._minus
        pos = self.datum.positive_roots()
        order = {rt.coeffs: i for i, rt in enumerate(pos)}
        for g in pos:
            pairs = []
            for rt in pos:
                if 2 * rt.height > g.height:   # a before b needs ht a <= ht b
                    break
                a = rt.coeffs
                b = tuple(map(sub, g.coeffs, a))
                if order.get(b, -1) > order[a]:
                    pairs.append((a, b))
            c = minus[g.coeffs]
            for a, b in pairs:
                n = self._compute_N(a, b, *pairs[0])
                for x, y, v in ((a, b, n),
                                (b, c, self._exact(n * L[a], L[c], b, c)),
                                (c, a, self._exact(n * L[b], L[c], c, a))):
                    nx, ny = minus[x], minus[y]
                    self._set_N(x, y, v)
                    self._set_N(y, x, -v)
                    self._set_N(nx, ny, -v)
                    self._set_N(ny, nx, v)

    def _compute_N(self, a, b, a1, b1):
        """N(a, b) for positive a before b, from the extraspecial pair
        (a1, b1) of a + b, by the relation on (a, b, -a1, -b1):
        N(a, b) = (a+b, a+b) / N(a1, b1) * (N(b, -a1) N(a, -b1) / (d1, d1)
                  + N(-a1, a) N(b, -b1) / (d2, d2)),  d1 = b - a1, d2 = a - a1,
        where a term whose d is not a root is zero."""
        if (a, b) == (a1, b1):
            return self.chain_p(a1, b1) + 1
        N, L = self._N, self._len_sq
        na1, nb1 = self._minus[a1], self._minus[b1]
        d1, d2 = tuple(map(sub, b, a1)), tuple(map(sub, a, a1))
        t1 = N[b, na1] * N[a, nb1] if d1 in L else 0
        t2 = N[na1, a] * N[b, nb1] if d2 in L else 0
        l1, l2 = L.get(d1, 1), L.get(d2, 1)
        gamma = tuple(map(add, a, b))
        return self._exact(L[gamma] * (t1 * l2 + t2 * l1), l1 * l2 * N[a1, b1], a, b)

    @staticmethod
    def _exact(num, den, a, b):
        """num / den, which is N(a, b); raises unless the division is exact."""
        q, r = divmod(num, den)
        if r:
            raise AssertionError(f"non-integral N({a},{b}) = {num}/{den}")
        return q

    def _set_N(self, a, b, n):
        """Store N(a, b) = n after checking |n| = p + 1 on the a-chain
        through b."""
        p = self.chain_p(a, b)
        if abs(n) != p + 1:
            raise AssertionError(f"N({a},{b}) = {n}, chain gives {p + 1}")
        self._N[a, b] = n

    def N(self, a, b):
        """Structure constant in [x_a, x_b] = N(a,b) x_{a+b}; 0 if a+b not a root."""
        return self._N.get((a, b), 0)

    def coroot_h(self, coeffs):
        """Coroot of the root, as coefficients on the h-basis."""
        return self._coroot_h[coeffs]

    # -- brackets on basis elements -----------------------------------------

    def bracket_keys(self, key1, key2):
        """[key1, key2] as a dict basis-key -> integer coefficient."""
        t1, t2 = key1[0], key2[0]
        if t1 == "h" and t2 == "h":
            return {}
        if t1 == "h":
            c = self._pairing[key2[1]][key1[1]]
            return {key2: c} if c else {}
        if t2 == "h":
            c = -self._pairing[key1[1]][key2[1]]
            return {key1: c} if c else {}
        a, b = key1[1], key2[1]
        n = self._N.get((a, b))
        if n:
            return {("x", tuple(map(add, a, b))): n}
        if not any(map(add, a, b)):
            return {("h", k): c for k, c in enumerate(self._coroot_h[a]) if c}
        return {}

    def ad_columns(self, key):
        """ad(key) as integer columns: entry j is the tuple of nonzero (i, c)
        with c the (i, j) entry, for the basis order of basis_keys()."""
        if key[0] == "x":
            return [tuple((i, c) for k, i, c in col if k == 1)
                    for col in self.divided_powers(key[1])]
        n, k = self.n, key[1]
        pairs = [self._pairing[rt.coeffs][k] for rt in self.roots]
        return [()] * n + [((n + j, p),) if p else () for j, p in enumerate(pairs)]

    def divided_powers(self, a):
        """ad(x_a)^k / k! for all k >= 1 as integer columns (Kostant's
        Z-form), computed once per root: entry j is the tuple of (k, i, c),
        k ascending, c the nonzero (i, j) entry of the k-th power.  h_k goes
        to -<a, h_k> x_a.  x_b with b != -a walks the a-string b + a, b + 2a,
        ... with c_k = c_{k-1} N(a, b + (k-1)a) / k.  x_{-a} goes to h_a,
        then to -<a, h_a>/2 x_a, with <a, h_a> = 2 checked on the tables."""
        if a in self._divided:
            return self._divided[a]
        n, index, pairing = self.n, self._root_index, self._pairing[a]
        ia = n + index[a]
        # the basis index of the a-string successor of each x_b, with N(a, b)
        step = {}
        for j, rt in enumerate(self.roots, start=n):
            nab = self._N.get((a, rt.coeffs))
            if nab:
                step[j] = (n + index[tuple(map(add, a, rt.coeffs))], nab)
        cols = [((1, ia, -p),) if p else () for p in pairing] + [()] * len(self.roots)
        for j in step:
            col, i, c, k = [], j, 1, 0
            while i in step:
                i, nab = step[i]
                k += 1
                c, r = divmod(c * nab, k)
                if r:
                    raise AssertionError(f"non-integral divided power at root {a}")
                col.append((k, i, c))
            cols[j] = tuple(col)
        h = self._coroot_h[a]
        s = sum(map(mul, h, pairing))
        if s != 2:
            raise AssertionError(f"<{a}, h_a> = {s} at x_-a, not 2")
        cols[n + index[self._minus[a]]] = (
            tuple((1, k, x) for k, x in enumerate(h) if x) + ((2, ia, -s // 2),))
        self._divided[a] = cols
        return cols

    def ad_matrix(self, elem):
        """Matrix of ad(elem) acting on columns indexed by basis keys."""
        ring = elem.ring
        zero = ring.coerce(0)
        M = [[zero] * self.dim for _ in range(self.dim)]
        for key, coeff in elem.coefficients.items():
            for j, col in enumerate(self.ad_columns(key)):
                for i, c in col:
                    M[i][j] = ring.add(M[i][j], ring.mul(coeff, ring.coerce(c)))
        return M

    def structure_constant_table(self):
        """All (alpha, beta, N) triples with nonzero N, for external checking."""
        return [(r1.coeffs, r2.coeffs, self._N[r1.coeffs, r2.coeffs])
                for r1 in self.roots for r2 in self.roots
                if (r1.coeffs, r2.coeffs) in self._N]

    def verify_jacobi(self):
        """Exhaustive Jacobi check on basis triples; raises on failure."""
        keys = self.basis_keys()
        zero = LieElement(self, {}, ZZ)
        elems = [LieElement(self, {k: 1}, ZZ) for k in keys]
        for i, x in enumerate(elems):
            for j in range(i, len(elems)):
                y = elems[j]
                for k in range(j, len(elems)):
                    z = elems[k]
                    s = bracket(self, x, bracket(self, y, z))
                    s = s.add(bracket(self, y, bracket(self, z, x)))
                    s = s.add(bracket(self, z, bracket(self, x, y)))
                    if s.coefficients:
                        raise AssertionError(
                            f"Jacobi fails on basis triple {keys[i]}, {keys[j]}, {keys[k]}")
        return True


class LieElement:
    __slots__ = ("basis", "coefficients", "ring")

    def __init__(self, basis, coefficients, ring):
        self.basis = basis
        self.ring = ring
        clean = {}
        for k, v in coefficients.items():
            v = ring.coerce(v)
            if v != ring.coerce(0):
                clean[k] = v
        self.coefficients = clean

    def add(self, other):
        if self.ring != other.ring or self.basis is not other.basis:
            raise RingMismatchError("mismatched Lie elements")
        out = dict(self.coefficients)
        zero = self.ring.coerce(0)
        for k, v in other.coefficients.items():
            out[k] = self.ring.add(out.get(k, zero), v)
        return LieElement(self.basis, out, self.ring)

    def scale(self, c):
        c = self.ring.coerce(c)
        return LieElement(self.basis,
                          {k: self.ring.mul(c, v) for k, v in self.coefficients.items()},
                          self.ring)

    def change_ring(self, ring):
        return LieElement(self.basis, dict(self.coefficients), ring)

    def __eq__(self, other):
        return (isinstance(other, LieElement) and self.basis is other.basis
                and self.ring == other.ring and self.coefficients == other.coefficients)

    def __repr__(self):
        if not self.coefficients:
            return "0"
        bits = []
        for k in self.basis.basis_keys():
            if k in self.coefficients:
                name = f"h{k[1]}" if k[0] == "h" else f"x{list(k[1])}"
                bits.append(f"{self.coefficients[k]}*{name}")
        return " + ".join(bits)


def build_chevalley(dual):
    """Chevalley basis for the Lie algebra with the given root datum."""
    return ChevalleyBasis(dual)


def bracket(basis, a, b):
    if a.ring != b.ring:
        raise RingMismatchError("mismatched scalar rings")
    ring = a.ring
    out = {}
    zero = ring.coerce(0)
    for k1, c1 in a.coefficients.items():
        for k2, c2 in b.coefficients.items():
            for key, n in basis.bracket_keys(k1, k2).items():
                term = ring.mul(ring.mul(c1, c2), ring.coerce(n))
                out[key] = ring.add(out.get(key, zero), term)
    return LieElement(basis, out, ring)


def principal_e(basis, g_datum, ring=ZZ):
    """e = sum of squared-coroot-length multiples of the simple generators.

    g_datum is the datum whose coroot system is basis.datum's root system;
    the coefficient on the i-th simple generator is the squared length of
    the i-th simple coroot of g_datum (short coroot = 1).
    """
    lengths = g_datum.coroot_length_sq()
    r = g_datum.derived_rank
    if r != basis.datum.derived_rank:
        raise AssertionError("basis and datum have different derived ranks")
    coeffs = {}
    for i in range(r):
        key = ("x", tuple(int(j == i) for j in range(r)))
        coeffs[key] = lengths[i]
    return LieElement(basis, coeffs, ring)


def simple_sum_e1(basis, ring=ZZ):
    """e1 = sum of the simple root generators, all coefficients 1."""
    r = basis.datum.derived_rank
    return LieElement(basis, {("x", tuple(int(j == i) for j in range(r))): 1
                              for i in range(r)}, ring)


def ad_kernel_dim(basis, v, ring=QQ):
    """dim ker(ad v) on the Lie algebra tensored with the given field."""
    return basis.dim - rank(basis.ad_matrix(v.change_ring(ring)), ring)
