"""Exact linear algebra over any ring with the ``rings`` operations.

Matrices are plain lists of rows and vectors plain lists; the entries are
elements of a ring object with ``coerce``, ``add``, ``sub``, ``mul``,
``neg``, ``div`` and ``is_unit``: ints for ZZ and F_p; for QQ an int when
the value is integral and a Fraction only otherwise; Polynomials for a
``commalg.PolyRing``.  Zero entries are found by truthiness.  All row
reduction over a field is ``LinSpan``, a sparse echelon form; rank,
determinant and ``solve_left_rows`` are read off it, the last, like every
linear dependency, by tagged elimination.  Smith normal form is the one
algorithm over Z rather than a field.  Matrices are small (a few
hundred rows at most), so no numpy.
"""

from .rings import QQ, ZZ


def identity(n, ring=ZZ):
    one, zero = ring.coerce(1), ring.coerce(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def is_integral(vec_or_mat):
    rows = vec_or_mat if vec_or_mat and isinstance(vec_or_mat[0], list) else [vec_or_mat]
    return all(x.denominator == 1 for row in rows for x in row)


def to_int(vec_or_mat):
    if vec_or_mat and isinstance(vec_or_mat[0], list):
        return [[int(x) for x in row] for row in vec_or_mat]
    return [int(x) for x in vec_or_mat]


# ----------------------------------------------------------------------
# row reduction over a field


class LinSpan:
    """Row space over a field in sparse echelon form; vectors are dicts.

    Each stored row has a pivot, its largest key, and is zero at the pivots
    of all rows stored before it.  Linear dependencies are read by tagged
    elimination: rows added through ``tagged`` carry their input's tag in
    keys that sort below every image key, so a stored row whose pivot is a
    tag key is a dependency among the inputs, and ``express`` reads a
    combination of the inputs off the tag keys a reduction leaves.
    """

    def __init__(self, ring):
        self.ring = ring
        self.rows = {}      # pivot key -> row dict, in the order added,
                            # which determinant relies on

    def _reduce(self, vec):
        """vec with every pivot key cleared by the stored rows."""
        R = self.ring
        zero = R.coerce(0)
        vec = {k: v for k, v in vec.items() if v}
        while True:
            hit = None
            for k in vec:
                if k in self.rows:
                    hit = k
                    break
            if hit is None:
                return vec
            row = self.rows[hit]
            f = R.div(vec[hit], row[hit])
            for k2, v2 in row.items():
                nv = R.sub(vec.get(k2, zero), R.mul(f, v2))
                if nv:
                    vec[k2] = nv
                else:
                    vec.pop(k2, None)

    def add(self, vec):
        """Insert; returns False if vec is in the span already."""
        vec = self._reduce(vec)
        if not vec:
            return False
        self.rows[max(vec)] = vec
        return True

    def dependencies(self):
        """The stored rows that are zero on every image key, each as
        {tag: coefficient}, in increasing pivot order.  With only tagged
        rows added they are a basis of the linear relations among the
        inputs, one for each input that depends on those added before."""
        return [{k[1]: v for k, v in self.rows[p].items()}
                for p in sorted(p for p in self.rows if p[0] == 0)]

    def express(self, vec):
        """Write vec as a combination of tagged inputs (tag -> coefficient),
        or None if vec is outside the span."""
        red = self._reduce({(1, k): v for k, v in vec.items()})
        if any(k[0] for k in red):
            return None
        # vec = sum f * row over the rows _reduce subtracted, and the tag
        # keys left hold -sum f * (that row's tag part)
        return {k[1]: self.ring.neg(c) for k, c in red.items()}

    def rank(self):
        return len(self.rows)


def tagged(vec, tag, ring):
    """vec as a LinSpan row for tagged elimination: every key k becomes the
    image key (1, k), and the tag key (0, tag) is 1."""
    out = {(1, k): v for k, v in vec.items()}
    out[(0, tag)] = ring.coerce(1)
    return out


def _sparse(row, ring):
    return {j: ring.coerce(x) for j, x in enumerate(row) if x}


def _dense(vec, n, ring):
    zero = ring.coerce(0)
    return [vec.get(j, zero) for j in range(n)]


def _independent_rows(A, ring):
    """LinSpan of the rows of A, row i tagged i; raises if they are dependent."""
    span = LinSpan(ring)
    for i, row in enumerate(A):
        span.add(tagged(_sparse(row, ring), i, ring))
    if span.dependencies():
        raise ValueError("matrix is singular")
    return span


def rank(A, ring=QQ):
    span = LinSpan(ring)
    for row in A:
        span.add(_sparse(row, ring))
    return span.rank()


def determinant(A, ring=QQ):
    """det A as the product of the echelon pivots, signed.

    Echelon rows are A's rows minus multiples of earlier ones, so they keep
    the determinant.  Taken with the columns in pivot order they form an
    upper triangular matrix; the sign is that of this column permutation.
    """
    span = LinSpan(ring)
    for row in A:
        if not span.add(_sparse(row, ring)):
            return ring.coerce(0)
    det = ring.coerce(1)
    for pivot, row in span.rows.items():
        det = ring.mul(det, row[pivot])
    pivots = list(span.rows)
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return ring.neg(det) if inversions % 2 else det


def solve_left_rows(B, V, ring=QQ):
    """Solve x*B = v (row-vector convention) for each row v of V, against
    one elimination of B, whose rows must be independent."""
    span = _independent_rows(B, ring)
    xs = [span.express(_sparse(v, ring)) for v in V]
    if None in xs:
        raise ValueError("vector is outside the row space")
    return [_dense(x, len(B), ring) for x in xs]


# ----------------------------------------------------------------------
# integer lattices


def smith_normal_form(M):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with D = U*M*V, U and V unimodular, D diagonal with
    d_1 | d_2 | ... all non-negative.  Each round takes the smallest nonzero
    entry of the remaining block as pivot and clears its row and column; the
    pivot shrinks until it divides the whole block, so the rounds end.
    """
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):  # row_i += c*row_j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, c):  # col_i += c*col_j
        for row in A:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(n, m):
        # pivot: the smallest nonzero entry of the remaining block
        piv = min(((abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, m)
                   if A[i][j]), default=None)
        if piv is None:
            break
        swap_rows(t, piv[1])
        swap_cols(t, piv[2])
        p = A[t][t]
        for i in range(t + 1, n):
            add_row(i, t, -(A[i][t] // p))
        for j in range(t + 1, m):
            add_col(j, t, -(A[t][j] // p))
        if (any(A[i][t] for i in range(t + 1, n))
                or any(A[t][j] for j in range(t + 1, m))):
            continue            # a remainder left is smaller than the pivot
        # d_t | d_{t+1} needs the pivot to divide the whole remaining block:
        # a row with an entry it does not divide is added to row t, whose
        # next clearing leaves a remainder smaller than the pivot
        bad = next((i for i in range(t + 1, n)
                    if any(A[i][j] % p for j in range(t + 1, m))), None)
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1
    D = [[A[i][j] if i == j else 0 for j in range(m)] for i in range(n)]
    return U, D, V


def invariant_factors(M):
    """Diagonal of the Smith normal form, trailing zeros for rank deficit."""
    n = len(M)
    m = len(M[0]) if n else 0
    _, D, _ = smith_normal_form(M)
    return [D[i][i] for i in range(min(n, m))]
