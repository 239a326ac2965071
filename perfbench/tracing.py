"""Outside-in stage trace, installed only for the traced passes of a run.

``install`` replaces the functions at each layer boundary of ``liedual`` by
wrappers that record a span (layer, item, start, end, parent) and a few exact
counts, in every ``liedual`` module namespace that binds them; ``uninstall``
puts the originals back.  Untraced passes run the library untouched.

A layer's self time is the sum of its spans' durations minus the durations of
their direct child spans.  ``normal_form`` is counted but not timed: it is
called tens of thousands of times per pass, and its time stays with the layer
that calls it (Groebner inside ``groebner_basis``, products inside the
presentation).
"""

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from liedual import centralizer, chevalley, commalg, loop_oracle, root_datum

# Span layers, in the order of the pipeline.
LAYERS = ["root_datum", "chevalley", "centralizer.ideal", "commalg.groebner",
          "commalg.krull", "commalg.hilbert", "centralizer.presentation",
          "loop_oracle"]

# Exact counts, per pass.
COUNTS = ["commalg.normal_form.calls", "commalg.groebner.calls",
          "commalg.groebner.size", "commalg.groebner.terms",
          "commalg.groebner.max_lead_deg", "centralizer.ideal.gens",
          "centralizer.ideal.terms", "centralizer.presentation.generators",
          "centralizer.presentation.relations", "chevalley.dim"]


def _chevalley_stats(counts, basis):
    counts["chevalley.dim"] += basis.dim


def _ideal_stats(counts, cid):
    counts["centralizer.ideal.gens"] += len(cid.ideal.gens)
    counts["centralizer.ideal.terms"] += sum(len(g.terms) for g in cid.ideal.gens)


def _groebner_stats(counts, gb):
    counts["commalg.groebner.calls"] += 1
    counts["commalg.groebner.size"] += len(gb)
    counts["commalg.groebner.terms"] += sum(len(g.terms) for g in gb)
    degs = [g.ring.wdeg(g.leading_monomial()) for g in gb]
    counts["commalg.groebner.max_lead_deg"] = max(
        [counts["commalg.groebner.max_lead_deg"]] + degs)


def _presentation_stats(counts, pres):
    counts["centralizer.presentation.generators"] += len(pres.generators)
    counts["centralizer.presentation.relations"] += len(pres.relations)


# (layer, owner, attribute, stats).  A module owner means a module-level
# function, rebound in every liedual module that imported it; a class owner
# means a method, replaced on the class.
BOUNDARIES = [
    ("root_datum", root_datum, "preset", None),
    ("root_datum", root_datum.RootDatum, "dual_datum", None),
    ("root_datum", root_datum.RootDatum, "component_group", None),
    ("chevalley", chevalley, "build_chevalley", _chevalley_stats),
    ("chevalley", chevalley, "principal_e", None),
    ("chevalley", chevalley, "ad_kernel_dim", None),
    ("centralizer.ideal", centralizer.BorelCoordinates, "__init__", None),
    ("centralizer.ideal", centralizer, "centralizer_ideal", _ideal_stats),
    ("commalg.groebner", commalg, "groebner_basis", _groebner_stats),
    ("commalg.krull", commalg, "ideal_dimension", None),
    ("commalg.hilbert", commalg, "hilbert_series", None),
    ("centralizer.presentation", centralizer, "present_centralizer",
     _presentation_stats),
    ("loop_oracle", loop_oracle, "compare_report", None),
    ("loop_oracle", loop_oracle, "omega_poincare", None),
]

COUNTED = [("commalg.normal_form.calls", commalg, "normal_form")]


class Tracer:
    """Spans and counts of the current pass; ``item`` labels new spans."""

    def __init__(self):
        self.item = None
        self.spans = []          # [layer, item, start, end, parent index]
        self.counts = Counter()
        self._open = []          # indices of the spans still running
        self._undo = []

    def _span(self, layer, fn, stats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, self.item, perf_counter(), None,
                    self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if stats is not None:
                    stats(self.counts, result)
                return result
            finally:
                span[3] = perf_counter()
                self._open.pop()
        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for name, m in list(sys.modules.items())
                       if (name == "liedual" or name.startswith("liedual."))
                       and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapper)
            self._undo.append((target, attr, original))

    def install(self):
        for layer, owner, attr, stats in BOUNDARIES:
            self._replace(owner, attr, self._span(layer, getattr(owner, attr), stats))
        for name, owner, attr in COUNTED:
            self._replace(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def take(self):
        """Self time per (layer, item) and the counts of the pass; then reset."""
        child = [0.0] * len(self.spans)
        for layer, item, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for (layer, item, start, end, _), inner in zip(self.spans, child):
            self_time[layer, item] += end - start - inner
        counts = Counter(self.counts)
        self.spans, self.counts = [], Counter()
        return self_time, counts
