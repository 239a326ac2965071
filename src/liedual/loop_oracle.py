"""Topology-side oracle: Poincare series of the based loop space from the
exponents, and the classical constants the datum's own invariants are
checked against.

The loop-space series itself is classical (exponents formula); it serves as
the independent comparison target for the centralizer presentations.
``basic_form`` reads the form f up to sign off the symmetrizer, not off the
roots, and ``pi0_order`` reads |pi_0| off determinants, not off the Smith
normal form of ``component_group``.
"""

from itertools import combinations
from math import gcd

from .commalg import HilbertSeries
from .intlinalg import determinant, solve_left_rows


def omega_poincare(d, N=40):
    """|pi_0 torsion| * prod 1/(1 - t^{2 m_i}), truncated at N.

    A central torus contributes no series factor; its free rank stays on
    d.component_group().
    """
    return HilbertSeries([d.component_group().torsion_order],
                         [2 * m for m in d.exponents()], N)


def basic_form(d):
    """The invariant form with short coroots of squared length 2, on the
    cocharacter basis: (alpha_i^vee, alpha_j^vee) = L_i <alpha_i, alpha_j^vee>
    with L = d.coroot_length_sq() (Kac, Infinite-dimensional Lie algebras,
    6.2).  Central coordinates pair to 0."""
    L, C, r = d.coroot_length_sq(), d.cartan, d.derived_rank
    xs = solve_left_rows(C, [list(row[:r]) for row in d.cochar_basis])
    return [[sum(x[i] * L[i] * C[j][i] * y[j]
                 for i in range(r) for j in range(r)) for y in xs] for x in xs]


def pi0_order(d):
    """|torsion of X_* / Z Phi^vee| as the gcd of the r x r minors of the
    simple coroots in cocharacter coordinates."""
    B = [list(row) for row in d.cochar_basis]
    rows = solve_left_rows(B, [list(alpha) for alpha in d.simple_coroots])
    return gcd(*(int(determinant([[row[c] for c in cols] for row in rows]))
                 for cols in combinations(range(d.rank), d.derived_rank)))


def compare_report(pres, d, N=40):
    """Verdict comparing a centralizer presentation to the loop-space oracle."""
    oracle = omega_poincare(d, N)
    got = pres.hilbert
    series_ok = got.truncated(N) == oracle.truncated(N)
    first_diff = None if series_ok else got.first_difference(oracle)
    dim_ok = pres.krull_dim == d.derived_rank
    z_ok = pres.zcenter.torsion_order == d.component_group().torsion_order
    return {
        "preset": d.name,
        "ring": pres.base.name,
        "series_equal_to": N if series_ok else first_diff - 1,
        "series_ok": series_ok,
        "first_difference": first_diff,
        "dimension_ok": dim_ok,
        "zcenter_ok": z_ok,
        "pass": series_ok and dim_ok and z_ok,
    }
