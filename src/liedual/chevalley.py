"""Chevalley Z-form of the Lie algebra attached to a root datum.

The basis consists of h_k (one per row of the datum's cocharacter basis)
and x_beta (one per root).  Structure constants are integers:

    [h, x_beta]          = <beta, h> x_beta
    [x_beta, x_{-beta}]  = h_beta   (coroot of beta in the h-basis)
    [x_beta, x_gamma]    = N(beta, gamma) x_{beta+gamma},  |N| = p + 1

with signs fixed by the extraspecial-pair convention for the canonical
(height, lex) positive-root order.
"""

from fractions import Fraction

from .intlinalg import inverse, is_integral, mat_vec, rank, to_int, transpose
from .rings import QQ, RingMismatchError, ZZ


class ChevalleyBasis:
    def __init__(self, datum):
        self.datum = datum
        self.roots = datum.roots()
        self.n = datum.rank
        self.dim = self.n + len(self.roots)
        self._root_index = {rt.coeffs: i for i, rt in enumerate(self.roots)}
        self._pos_order = {rt.coeffs: i for i, rt in enumerate(datum.positive_roots())}
        d = datum.symmetrizer()
        C = datum.cartan
        r = datum.derived_rank

        def ip(a, b):
            return sum(a[i] * d[i] * C[i][j] * b[j]
                       for i in range(r) for j in range(r))

        self._ip = ip
        self._root_set = set(self._root_index)
        self._N = {}
        self._coroot_h = {}
        # h-coordinates x of a coroot solve x * B = coroot, so x = B^-T coroot
        B_inv_T = transpose(inverse([list(row) for row in datum.cochar_basis]))
        for rt in self.roots:
            coords = mat_vec(B_inv_T, list(rt.coroot))
            if not is_integral(coords):
                raise AssertionError(
                    f"coroot of {rt.coeffs} outside the cocharacter lattice")
            self._coroot_h[rt.coeffs] = tuple(to_int(coords))

    # -- basis bookkeeping -------------------------------------------------

    def basis_keys(self):
        return ([("h", k) for k in range(self.n)]
                + [("x", rt.coeffs) for rt in self.roots])

    def key_index(self, key):
        if key[0] == "h":
            return key[1]
        return self.n + self._root_index[key[1]]

    def root_of(self, coeffs):
        return self.roots[self._root_index[coeffs]]

    def pairing(self, coeffs, k):
        """<beta, h_k> for the root with the given simple-root coefficients."""
        return sum(a * b for a, b in zip(self.root_of(coeffs).vector,
                                         self.datum.cochar_basis[k]))

    # -- structure constants ----------------------------------------------

    def chain_p(self, a, b):
        """Largest p with b - p*a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in self._root_set:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _extraspecial(self, gamma):
        """The extraspecial pair (a, b): a + b = gamma with a order-minimal."""
        for rt in self.datum.positive_roots():
            a = rt.coeffs
            b = tuple(g - x for g, x in zip(gamma, a))
            if b in self._root_set and sum(b) > 0 and self._pos_order[a] < self._pos_order[b]:
                return a, b
        raise AssertionError(f"no special pair for {gamma}")

    def N(self, a, b):
        """Structure constant in [x_a, x_b] = N(a,b) x_{a+b}; 0 if a+b not a root."""
        s = tuple(x + y for x, y in zip(a, b))
        if s not in self._root_set:
            return 0
        if (a, b) in self._N:
            return self._N[(a, b)]
        val = self._compute_N(a, b)
        self._N[(a, b)] = val
        p = self.chain_p(a, b)
        if abs(val) != p + 1:
            raise AssertionError(f"N({a},{b}) = {val}, chain gives {p + 1}")
        return val

    def _compute_N(self, a, b):
        ip = self._ip
        neg = lambda v: tuple(-x for x in v)
        ha, hb = sum(a), sum(b)
        if ha < 0 and hb < 0:
            return -self.N(neg(a), neg(b))
        if ha > 0 and hb > 0:
            if self._pos_order[a] > self._pos_order[b]:
                return -self.N(b, a)
            gamma = tuple(x + y for x, y in zip(a, b))
            a1, b1 = self._extraspecial(gamma)
            if (a, b) == (a1, b1):
                return self.chain_p(a1, b1) + 1
            # quadruple relation on (a, b, -a1, -b1), which sums to zero
            t = Fraction(0)
            d1 = tuple(x - y for x, y in zip(b, a1))   # b - a1 = -(a - b1)
            if d1 in self._root_set:
                t += Fraction(self.N(b, neg(a1)) * self.N(a, neg(b1)), ip(d1, d1))
            d2 = tuple(x - y for x, y in zip(a, a1))   # a - a1 = -(b - b1)
            if d2 in self._root_set:
                t += Fraction(self.N(neg(a1), a) * self.N(b, neg(b1)), ip(d2, d2))
            val = Fraction(ip(gamma, gamma)) * t / self.N(a1, b1)
            if val.denominator != 1:
                raise AssertionError(f"non-integral N({a},{b}) = {val}")
            return int(val)
        # mixed signs: rotate the cyclic relation for a + b + c = 0
        if ha < 0:   # make the first argument positive
            return -self.N(b, a)
        c = tuple(-x - y for x, y in zip(a, b))
        if sum(c) < 0:
            # (b, c) both negative
            return Fraction(ip(c, c), ip(a, a)) * self.N(b, c)
        # c positive, (c, a) both positive
        return Fraction(ip(c, c), ip(b, b)) * self.N(c, a)

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
            c = self.pairing(key2[1], key1[1])
            return {key2: c} if c else {}
        if t2 == "h":
            c = -self.pairing(key1[1], key2[1])
            return {key1: c} if c else {}
        a, b = key1[1], key2[1]
        if all(x + y == 0 for x, y in zip(a, b)):
            return {("h", k): c for k, c in enumerate(self.coroot_h(a)) if c}
        n = self.N(a, b)
        if n == 0:
            return {}
        return {("x", tuple(x + y for x, y in zip(a, b))): n}

    def ad_matrix(self, elem):
        """Matrix of ad(elem) acting on columns indexed by basis keys."""
        keys = self.basis_keys()
        M = [[None] * self.dim for _ in range(self.dim)]
        ring = elem.ring
        zero = ring.coerce(0)
        for i in range(self.dim):
            for j in range(self.dim):
                M[i][j] = zero
        for key, coeff in elem.coefficients.items():
            for j, bk in enumerate(keys):
                for out_key, c in self.bracket_keys(key, bk).items():
                    i = self.key_index(out_key)
                    M[i][j] = ring.add(M[i][j], ring.mul(coeff, ring.coerce(c)))
        return M

    def structure_constant_table(self):
        """All (alpha, beta, N) triples with nonzero N, for external checking."""
        out = []
        for r1 in self.roots:
            for r2 in self.roots:
                s = tuple(x + y for x, y in zip(r1.coeffs, r2.coeffs))
                if s in self._root_set:
                    out.append((r1.coeffs, r2.coeffs, self.N(r1.coeffs, r2.coeffs)))
        return out

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
