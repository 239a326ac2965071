"""Topology-side oracle: Poincare series of the based loop space from the
exponents, component algebra, and line-bundle degree constants.

The loop-space series itself is classical (exponents formula); it serves as
the independent comparison target for the centralizer presentations.
"""

from dataclasses import dataclass
from fractions import Fraction

from .commalg import HilbertSeries


class PureTorusError(ValueError):
    pass


@dataclass
class WeightedRep:
    """A representation described by its torus weights.

    weights: list of (character vector in root coordinates, multiplicity).
    """
    weights: list
    self_dual: bool = False

    def __post_init__(self):
        if any(m <= 0 for _, m in self.weights):
            raise ValueError("multiplicities must be positive")
        if self.self_dual:
            bag = {}
            for w, m in self.weights:
                bag[tuple(w)] = bag.get(tuple(w), 0) + m
            for w, m in bag.items():
                if bag.get(tuple(-x for x in w), 0) != m:
                    raise ValueError("weight multiset is not symmetric under negation")


def adjoint_rep(d):
    """Adjoint representation: all roots once, zero weight with rank multiplicity."""
    weights = [(rt.vector, 1) for rt in d.roots()]
    weights.append(((0,) * d.rank, d.rank))
    return WeightedRep(weights, self_dual=True)


def omega_poincare(d, N=40):
    """|pi_0 torsion| * prod 1/(1 - t^{2 m_i}), truncated at N.

    A central torus contributes no series factor; its free rank stays on
    d.component_group().
    """
    if d.derived_rank == 0:
        raise PureTorusError("pure torus has no almost-simple derived group")
    return HilbertSeries([d.component_group().torsion_order],
                         [2 * m for m in d.exponents()], N)


def degree_dV(d, rep):
    """d_V = (1/2) sum over weights of dim * <chi, theta>^2.

    theta is the coroot of the highest root.
    """
    theta = d.highest_root().coroot
    total = 0
    for chi, mult in rep.weights:
        if len(chi) != d.rank:
            raise ValueError("weight outside the character lattice")
        pairing = sum(a * b for a, b in zip(chi, theta))
        total += mult * pairing * pairing
    if total % 2:
        raise ValueError("half-sum is not integral: invalid weight multiset")
    return total // 2


def fixed_point_chern_weight(d, rep, lam):
    """-sum over weights of dim * <chi, lam> * chi, in root coordinates."""
    n = d.rank
    out = [Fraction(0)] * n
    for chi, mult in rep.weights:
        c = sum(a * b for a, b in zip(chi, lam))
        if c:
            for j in range(n):
                out[j] -= mult * c * Fraction(chi[j])
    return out


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
