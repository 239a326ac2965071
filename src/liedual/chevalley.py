"""Chevalley Z-form of the Lie algebra attached to a root datum.

The basis consists of h_k (one per row of the datum's cocharacter basis)
and x_beta (one per root).  Structure constants are integers:

    [h, x_beta]          = <beta, h> x_beta
    [x_beta, x_{-beta}]  = h_beta   (coroot of beta in the h-basis)
    [x_beta, x_gamma]    = N(beta, gamma) x_{beta+gamma},  |N| = p + 1

with signs fixed by the extraspecial-pair convention for the canonical
(height, lex) positive-root order.  Each basis fills three integer tables
once: the squared length (beta, beta) and the pairings <beta, h_k> of every
root, and N for every ordered pair of roots whose sum is a root.  The
divided powers of ad(x_beta) read these tables, and the brackets and ad
columns of x_beta read the divided powers.  Per-root entries are computed
for the positive roots, and -beta takes beta's, negated.  N(x, y) and
N(y, x) are checked against their root chains; N(-x, -y) = -N(x, y) and
N(-y, -x) = N(x, y) are written from that walk, since negation maps the
x-chain through y onto the -x-chain through -y.  The h-coordinates of the
simple coroots come from the datum, which solved for them when it was
validated.

Inside the basis a root is an integer code, sum_i b_i B^i for its
coefficients b_i on the simple roots, with B more than three times the
largest |b_i|.  Codes add like roots, so the a-string successor of b is
code(a) + code(b), and a sum of two roots has the code of a root only when
it is that root.  N is one dict keyed by code(a) * span + code(b), span
more than twice the largest |code|.  The public methods take and return
coefficient tuples, and every error names roots by them.
"""

from operator import mul

from .intlinalg import LinSpan
from .rings import QQ, RingMismatchError, ZZ


class ChevalleyBasis:
    def __init__(self, datum):
        self.datum = datum
        self.roots = datum.roots()
        self.n = datum.rank
        self.dim = self.n + len(self.roots)
        # additive root codes and the span of the _N keys (module docstring)
        base = 3 * max((abs(b) for rt in self.roots for b in rt.coeffs), default=0) + 1
        powers = [base ** i for i in range(datum.derived_rank)]
        self._code = {rt.coeffs: sum(map(mul, rt.coeffs, powers)) for rt in self.roots}
        # code -> coefficients and code -> position, both in root order
        self._root = dict(zip(self._code.values(), self._code))
        self._index = {c: i for i, c in enumerate(self._root)}
        self._span = 2 * max(map(abs, self._root), default=0) + 1
        # the tables below and the N of (-x, -y) are filled from the positive
        # roots, which needs -beta to be a root for every root beta
        if any(-c not in self._index for c in self._root):
            raise AssertionError("the roots are not closed under negation")
        d, C, B = datum.symmetrizer(), datum.cartan, datum.cochar_basis
        dC = [[di * c for c in row] for di, row in zip(d, C)]
        # h-coordinates x of a coroot solve x * B = coroot.  The datum keeps
        # the integer solutions for the simple coroots; the coroot of beta is
        # the integer combination sum_i (2 b_i d_i / (beta, beta)) alpha_i^vee
        # of the simple ones, and x * B = coroot is checked in integers
        h_cols, B_cols = list(zip(*datum.simple_coroot_h())), list(zip(*B))
        coroot = {rt.coeffs: rt.coroot for rt in self.roots}
        self._len_sq, self._pairing, self._coroot_h = {}, {}, {}
        for rt in self.roots:
            if not rt.positive:
                continue
            b, c = rt.coeffs, self._code[rt.coeffs]
            nb = self._root[-c]
            # (beta, beta) in the symmetrised form, sum_ij b_i d_i C_ij b_j
            length = sum(bi * sum(map(mul, row, b)) for bi, row in zip(b, dC))
            self._len_sq[c] = self._len_sq[-c] = length
            # <beta, h_k> for every row k of the cocharacter basis
            pairing = tuple(sum(map(mul, rt.vector, row)) for row in B)
            self._pairing[b], self._pairing[nb] = pairing, tuple(-x for x in pairing)
            q, r = zip(*(divmod(2 * bi * di, length) for bi, di in zip(b, d)))
            x = [sum(map(mul, q, col)) for col in h_cols]
            if any(r) or [sum(map(mul, x, col)) for col in B_cols] != list(rt.coroot):
                raise AssertionError(f"coroot of {b} outside the cocharacter lattice")
            # -x solves for the coroot of -beta when that is minus beta's
            if coroot[nb] != tuple(-v for v in rt.coroot):
                raise AssertionError(f"coroot of {nb} outside the cocharacter lattice")
            self._coroot_h[b], self._coroot_h[nb] = tuple(x), tuple(-v for v in x)
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
        return self.n + self._index[self._code[key[1]]]

    def pairing(self, coeffs, k):
        """<beta, h_k> for the root with the given simple-root coefficients."""
        return self._pairing[coeffs][k]

    # -- structure constants ----------------------------------------------

    def _key(self, a, b):
        """The _N key of the ordered pair of roots (a, b), given by codes."""
        return a * self._span + b

    def chain_p(self, a, b):
        """Largest p with b - p*a a root, for roots a and b."""
        return self._chain_p(self._code[a], self._code[b])

    def _chain_p(self, a, b):
        """chain_p for the roots with codes a and b."""
        p, cur = 0, b - a
        while cur in self._index:
            p += 1
            cur -= a
        return p

    def _fill_structure_constants(self):
        """N for every ordered pair, one positive sum gamma at a time in
        (height, lex) order, on root codes: _N maps the key
        code(a) * span + code(b) of the pair to N(a, b).  The first pair
        a + b = gamma with a before b is extraspecial; every other pair of
        gamma is computed from it and from pairs with a lower sum.  Each pair
        (a, b) with c = -gamma fills the twelve entries of its triple
        a + b + c = 0: the cyclic identity
        N(a, b)/(c, c) = N(b, c)/(a, a) = N(c, a)/(b, b), antisymmetry and
        N(-x, -y) = -N(x, y).  |N| = p + 1 is checked on (x, y) and (y, x);
        (-x, -y) and (-y, -x) have the same chains and take their values
        unchecked."""
        L, code, order = self._len_sq, self._code, self._index
        N, key = self._N, self._key
        pos = self.datum.positive_roots()
        for g in pos:
            cg, pairs = code[g.coeffs], []
            for rt in pos:
                if 2 * rt.height > g.height:   # a before b needs ht a <= ht b
                    break
                # g - a has positive height, so if it is a root it is positive
                a = code[rt.coeffs]
                if order.get(cg - a, -1) > order[a]:
                    pairs.append((a, cg - a))
            c = -cg
            for a, b in pairs:
                n = self._compute_N(a, b, *pairs[0])
                for x, y, v in ((a, b, n),
                                (b, c, self._exact(n * L[a], L[c], b, c)),
                                (c, a, self._exact(n * L[b], L[c], c, a))):
                    self._set_N(x, y, v)
                    self._set_N(y, x, -v)
                    # the -x-chain through -y is the negated x-chain through
                    # y, as the roots are closed under negation
                    N[key(-x, -y)], N[key(-y, -x)] = -v, v

    def _compute_N(self, a, b, a1, b1):
        """N(a, b) for positive a before b, from the extraspecial pair
        (a1, b1) of a + b, by the relation on (a, b, -a1, -b1):
        N(a, b) = (a+b, a+b) / N(a1, b1) * (N(b, -a1) N(a, -b1) / (d1, d1)
                  + N(-a1, a) N(b, -b1) / (d2, d2)),  d1 = b - a1, d2 = a - a1,
        where a term whose d is not a root is zero.  Roots are given by
        their codes."""
        if (a, b) == (a1, b1):
            return self._chain_p(a1, b1) + 1
        N, L, key = self._N, self._len_sq, self._key
        d1, d2 = b - a1, a - a1
        t1 = N[key(b, -a1)] * N[key(a, -b1)] if d1 in L else 0
        t2 = N[key(-a1, a)] * N[key(b, -b1)] if d2 in L else 0
        l1, l2 = L.get(d1, 1), L.get(d2, 1)
        return self._exact(L[a + b] * (t1 * l2 + t2 * l1),
                           l1 * l2 * N[key(a1, b1)], a, b)

    def _exact(self, num, den, a, b):
        """num / den, which is N(a, b) for the roots with codes a and b;
        raises unless the division is exact."""
        q, r = divmod(num, den)
        if r:
            raise AssertionError(
                f"non-integral N({self._root[a]},{self._root[b]}) = {num}/{den}")
        return q

    def _set_N(self, a, b, n):
        """Store N(a, b) = n for the roots with codes a and b after checking
        |n| = p + 1 on the a-chain through b."""
        p = self._chain_p(a, b)
        if abs(n) != p + 1:
            raise AssertionError(
                f"N({self._root[a]},{self._root[b]}) = {n}, chain gives {p + 1}")
        self._N[a * self._span + b] = n

    def N(self, a, b):
        """Structure constant in [x_a, x_b] = N(a,b) x_{a+b} for roots a and b;
        0 if a+b is not a root."""
        return self._N.get(self._key(self._code[a], self._code[b]), 0)

    def coroot_h(self, coeffs):
        """Coroot of the root, as coefficients on the h-basis."""
        return self._coroot_h[coeffs]

    # -- brackets on basis elements -----------------------------------------

    def bracket_keys(self, key1, key2):
        """[key1, key2] as a dict basis-key -> integer coefficient.  For a
        root key1 it is the k = 1 part of key1's divided_powers column at
        key2, so brackets and divided powers read one encoding."""
        if key1[0] == "h":
            if key2[0] == "h":
                return {}
            c = self._pairing[key2[1]][key1[1]]
            return {key2: c} if c else {}
        n = self.n
        return {("h", i) if i < n else ("x", self.roots[i - n].coeffs): c
                for k, i, c in self.divided_powers(key1[1])[self.key_index(key2)]
                if k == 1}

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
        n, index, pairing = self.n, self._index, self._pairing[a]
        ca = self._code[a]
        ia = n + index[ca]
        # the basis index of the a-string successor of each x_b, with N(a, b):
        # the key of (a, b) and the code of b + a are one addition each
        N, row = self._N, ca * self._span
        step = {j: (n + index[ca + cb], nab)
                for j, cb in enumerate(self._root, start=n) if (nab := N.get(row + cb))}
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
        cols[n + index[-ca]] = (
            tuple((1, k, x) for k, x in enumerate(h) if x) + ((2, ia, -s // 2),))
        self._divided[a] = cols
        return cols

    def structure_constant_table(self):
        """All (alpha, beta, N) triples with nonzero N, for external checking."""
        N, key, root = self._N, self._key, self._root
        return [(root[a], root[b], N[key(a, b)])
                for a in root for b in root if key(a, b) in N]

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


def ad_kernel_dim(basis, v, ring=QQ):
    """dim ker(ad v) on the Lie algebra tensored with the given field: dim
    minus the rank of the columns of ad(v), each the sum of the sparse
    ad_columns of v's basis keys scaled by their coefficients."""
    v = v.change_ring(ring)
    zero = ring.coerce(0)
    cols = [{} for _ in range(basis.dim)]
    for key, coeff in v.coefficients.items():
        for col, entries in zip(cols, basis.ad_columns(key)):
            for i, c in entries:
                col[i] = ring.add(col.get(i, zero), ring.mul(coeff, ring.coerce(c)))
    span = LinSpan(ring)
    for col in cols:
        span.add(col)
    return basis.dim - span.rank()
