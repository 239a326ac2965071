"""Dense references that only the tests use: matrix products, ad(v) as a
full matrix, and the simple-sum nilpotent e1.  The library works on sparse
columns; these spell the same objects out as plain matrices, for the tests
to compare with it and to hand to sympy."""

from liedual.chevalley import LieElement
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
