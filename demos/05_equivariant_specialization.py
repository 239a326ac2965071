"""The equivariant deformation e^T and its specializations: generic torus
parameters give a regular semisimple element; failures lie exactly where the
Weyl discriminant prod_alpha alpha(h) vanishes.

Run:  python3 demos/05_equivariant_specialization.py
"""

import random

from liedual import build_eT, load_datum, specialize_eT
from liedual.centralizer import compute_nG, f_form

d = load_datum("SL3")
eT = build_eT(d)
print(f"equivariant element for SL3: e + sum_k f(s, lambda_k) h_k")
print(f"  integrality constant n_G = {compute_nG(d)}")
print(f"  form matrix f = {f_form(d)}")
print()

rng = random.Random(5)
hits = misses = 0
for _ in range(12):
    s = [rng.randrange(-5, 6) for _ in range(d.rank)]
    _, report = specialize_eT(eT, s)
    tag = "regular semisimple" if report["regular_semisimple"] \
        else f"degenerate (Weyl discriminant = {report['discriminant']})"
    print(f"  s = {s}: kernel dim {report['kernel_dim']}, {tag}")
    if report["regular_semisimple"]:
        hits += 1
    else:
        assert report["discriminant"] == 0
        misses += 1
print(f"\n{hits} generic points, {misses} where the Weyl discriminant vanishes")

# alpha_2(h) = 0 at s = [1, 2]: a wall of the Weyl chamber for SL3
_, report = specialize_eT(eT, [1, 2])
assert not report["regular_semisimple"] and report["discriminant"] == 0
print("s = [1, 2] lies on the wall alpha_2(h) = 0, as expected")
