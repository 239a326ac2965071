"""The benchmark's workloads: fixed preset/ring items, each with a verdict check.

Every item calls the library through module attributes (``chevalley.build_chevalley``
rather than a name bound at import time), so the spans that ``tracing`` installs
in traced mode see the benchmark's own calls as well as the library's internal ones.

An item's check returns ``None`` when the verdict holds and a one-line reason when
it does not.  The checks are explicit comparisons, never ``assert``, so they hold
under ``python -O`` as well (``run.py`` refuses ``-O`` anyway, because the
library's own checks are asserts).
"""

from liedual import centralizer, chevalley, commalg, loop_oracle, root_datum, rings

TRUNCATION = 40


def _unipotent_setup(preset_name, ring_name):
    d = root_datum.preset(preset_name)
    ring = rings.ring_from_name(ring_name)
    basis = chevalley.build_chevalley(d.dual_datum())
    coords = centralizer.BorelCoordinates(basis, ring)
    e = chevalley.principal_e(basis, d, ring)
    return d, ring, basis, coords, e


def present_mid(preset_name, ring_name):
    """Full presentation of the centralizer, judged by the loop-space oracle."""
    d = root_datum.preset(preset_name)
    ring = rings.ring_from_name(ring_name)
    pres = centralizer.present_centralizer(d, ring, truncation=TRUNCATION)
    report = loop_oracle.compare_report(pres, d, TRUNCATION)
    if report["pass"] is not True:
        return (f"oracle verdict FAIL: series_ok={report['series_ok']} "
                f"dimension_ok={report['dimension_ok']} zcenter_ok={report['zcenter_ok']}")
    return None


def series_large(preset_name, ring_name):
    """Ideal -> Groebner -> Krull -> Hilbert, with no presentation step."""
    d, ring, _, coords, e = _unipotent_setup(preset_name, ring_name)
    cid = centralizer.centralizer_ideal(e, coords)
    if cid.mode != "unipotent":
        return f"ideal mode {cid.mode!r}, expected 'unipotent'"
    gb = commalg.groebner_basis(cid.ideal.gens)
    dim = commalg.ideal_dimension(gb)
    hs = commalg.hilbert_series(gb, ring=cid.ideal.ring, truncation=TRUNCATION,
                                is_groebner=True)
    oracle = loop_oracle.omega_poincare(d, TRUNCATION)
    got = hs.scaled(cid.zcenter.torsion_order).coeffs
    if got != oracle.coeffs:
        first = next(k for k, (a, b) in enumerate(zip(got, oracle.coeffs)) if a != b)
        return f"|Z|*series differs from the oracle at t^{first}"
    if dim != d.derived_rank:
        return f"Krull dimension {dim} != derived rank {d.derived_rank}"
    return None


def badprime_laurent(preset_name, ring_name):
    """Inhomogeneous Laurent ideal at a bad prime: the dimension must jump."""
    d, _, _, coords, e = _unipotent_setup(preset_name, ring_name)
    cid = centralizer.centralizer_ideal(e, coords)
    if cid.mode != "laurent":
        return f"ideal mode {cid.mode!r}, expected 'laurent'"
    gb = commalg.groebner_basis(cid.ideal.gens)
    dim = commalg.ideal_dimension(gb)
    if not dim > d.derived_rank:
        return f"Krull dimension {dim} does not exceed derived rank {d.derived_rank}"
    return None


def ideal_exceptional(preset_name, ring_name):
    """First stage of the frontier rung: Chevalley table and centralizer ideal."""
    d, ring, basis, coords, e = _unipotent_setup(preset_name, ring_name)
    kernel = chevalley.ad_kernel_dim(basis, e, ring)
    if kernel != d.rank:
        return f"dim ker ad(e) = {kernel} != rank {d.rank}"
    cid = centralizer.centralizer_ideal(e, coords)
    if cid.mode != "unipotent":
        return f"ideal mode {cid.mode!r}, expected 'unipotent'"
    origin = (0,) * cid.ideal.ring.nvars
    for g in cid.ideal.gens:
        if not g.is_homogeneous():
            return f"inhomogeneous generator {g}"
        if origin in g.terms:
            return f"generator with a constant term: {g}"
    return None


def _items(ring_name, *preset_names):
    return [(p, ring_name) for p in preset_names]


# name -> (item check, items).  The one-line reason for each workload is its
# "why" in BENCHMARK.json; the longer one is the comment above it.
WORKLOADS = {
    # Presentation extraction is ~97% of a pass here and the dominant cost of
    # every ladder rung.  Q next to F_p catches a prime-field-only speed-up
    # that costs Q.
    "present-mid": (
        present_mid,
        [("SL4", "Q"), ("Sp6", "F5"), ("Spin7", "Q"), ("SL5", "F7")],
    ),
    # commalg is ~93% of a pass: homogeneous Groebner, the 2^n subset search of
    # ideal_dimension and the Hilbert numerator, never the presentation.
    "series-large": (
        series_large,
        _items("F5", "Spin8") + _items("F7", "SL6", "Spin10"),
    ),
    # The same commalg layer on a different path: z*zi - 1 relations, mixed
    # degrees, no Hilbert step.  A change that helps homogeneous ideals but
    # hurts this path shows here.
    "badprime-laurent": (
        badprime_laurent,
        _items("F2", "SO7", "B3", "Spin7", "PSp6", "C3", "Sp6") + [("G2", "F3")]
        + _items("F2", "SO5", "PSp4", "Spin5", "Sp4"),
    ),
    # The first stage of the frontier rung, which is <= 9% of a pass anywhere
    # else.  F4/F5 and E6sc/F7 stop after the ideal because their Groebner step
    # does not finish in minutes yet.
    "ideal-exceptional": (
        ideal_exceptional,
        [("F4", "F5"), ("E6sc", "F7")],
    ),
}


# The rows of ROADMAP's "Baseline" table, for ``run.py --roadmap-table``: the
# whole pipeline through the presentation, except that F4/F5 and E6sc/F7 stop
# after the ideal, as in ideal-exceptional.
ROADMAP_ROWS = (
    [(present_mid, p, r) for p, r in [("SL3", "Q"), ("G2", "F2"), ("G2", "Q"),
                                      ("SL4", "F5"), ("Sp6", "F5"), ("Spin7", "F5"),
                                      ("SL5", "F7"), ("Spin8", "F5")]]
    + [(ideal_exceptional, "F4", "F5"), (ideal_exceptional, "E6sc", "F7")]
)


def load(workload):
    """Load the workload's presets and rings and finish their lazy set-up.

    ``preset`` is memoised and each datum caches its roots; both fill here,
    before the first timed pass.
    """
    _, items = WORKLOADS[workload]
    for preset_name, ring_name in items:
        root_datum.preset(preset_name).roots()
        rings.ring_from_name(ring_name)
