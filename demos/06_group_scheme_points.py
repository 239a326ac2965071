"""The centralizer as a group scheme: finite-field points close under the
group law, the coordinate-ring coproduct is coassociative (its graded dual
is associative), and that dual is a divided-power algebra.

Run:  python3 demos/06_group_scheme_points.py
"""

from math import comb

from liedual import (GF, QQ, brute_force_group_check, load_datum,
                     present_centralizer, truncated_dist)

for name in ["SL2", "PGL2", "SL3"]:
    d = load_datum(name)
    for p in (2, 3, 5):
        r = brute_force_group_check(d, p)
        print(f"{name}(F_{p}): {r['count']} points, closed {r['closed']}, "
              f"inverses {r['inverses']}, commutative {r['commutative']}")
print()

# the graded dual's product is associative up to degree N exactly when the
# coproduct is coassociative there
N = 12
dist = truncated_dist(present_centralizer(load_datum("SL3"), QQ), N)
basis = [m for ms in dist["basis_by_degree"].values() for m in ms]


def times(x, y):
    """The dual product of two combinations {monomial: coefficient}."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for m, c in dist["dual_product"](a, b).items():
                out[m] = out.get(m, 0) + ca * cb * c
    return {m: c for m, c in out.items() if c}


for a in basis:
    for b in basis:
        for c in basis:
            a_, b_, c_ = {a: 1}, {b: 1}, {c: 1}
            assert times(times(a_, b_), c_) == times(a_, times(b_, c_))
print(f"the dual product is associative on {len(basis)} basis monomials to degree "
      f"{N}, so the coproduct is coassociative there (SL3)")

# over Q the graded dual of the coordinate ring is the divided-power algebra
pres = present_centralizer(load_datum("SL2"), QQ)
dp = truncated_dist(pres, 20)["dual_product"]
print("\ndivided powers for SL2 over Q:  a^(m) a^(n) = C(m+n, n) a^(m+n)")
for m, n in [(1, 1), (2, 1), (2, 3), (4, 4)]:
    print(f"  a^({m}) a^({n}) = {dp((m,), (n,))[(m + n,)]} a^({m + n}) "
          f"(binomial {comb(m + n, n)})")

# in characteristic 2 the degree-2 dual generator squares to zero
dp2 = truncated_dist(present_centralizer(load_datum("SL2"), GF(2)), 8)["dual_product"]
assert dp2((1,), (1,)) == {}
print("\nover F2 the square of the degree-2 dual generator vanishes")
