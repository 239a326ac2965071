"""The library's consistency checks are explicit raises, so ``python -O``
does not switch them off."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import liedual

SCRIPT = """
from fractions import Fraction
from unittest import mock

from liedual import GF, QQ, build_chevalley, load_datum, present_centralizer
from liedual import centralizer
from liedual.chevalley import ChevalleyBasis

raised = []
peel = centralizer.peel_unipotent
def perturbed(coords, factors, ring):      # the law no longer has a counit:
    a = ring.gens()[:ring.nvars // 2]      # add the first times the last variable
    return [u + a[0] * a[-1]               # of copy a, nonzero in the quotient
            for u in peel(coords, factors, ring)]
with mock.patch.object(centralizer, "peel_unipotent", perturbed):
    for name, ring in [("SL2", QQ), ("G2", GF(2))]:   # G2/F2: leftover u2^2
        try:
            centralizer.truncated_dist(present_centralizer(load_datum(name), ring), 4)
        except AssertionError as exc:
            if "counit fails" in str(exc):
                raised.append(f"counit:{name}")
solve = centralizer.triangular_solve
def shifted(uring, gens, budget):          # add 1 to the image of u1, a pivot
    images, free, caps, generators = solve(uring, gens, budget)
    images[0] = {**images[0], (0,) * uring.nvars: uring.coeff.coerce(1)}
    return images, free, caps, generators
with mock.patch.object(centralizer, "triangular_solve", shifted):
    try:                                   # Spin8/F2 has the leftover u4^2
        present_centralizer(load_datum("Spin8"), GF(2))
    except AssertionError as exc:
        if "do not centralize e" in str(exc):
            raised.append("torsion")
def cubed(uring, gens, budget):            # the cap (u9, 3): 3 is no power of 2
    images, free, caps, generators = solve(uring, gens, budget)
    return images, free, caps + [(uring.names.index("u9"), 3)], generators
with mock.patch.object(centralizer, "triangular_solve", cubed):
    try:                                   # Borel's shape check on Spin8/F2
        present_centralizer(load_datum("Spin8"), GF(2))
    except AssertionError as exc:
        if "Borel" in str(exc):
            raised.append("borel")
with mock.patch.object(ChevalleyBasis, "_compute_N", return_value=7):
    try:                                   # the SL3 root chains give |N| = 1
        build_chevalley(load_datum("SL3"))
    except AssertionError as exc:
        if "chain gives" in str(exc):
            raised.append("chain")
basis = build_chevalley(load_datum("Sp4"))
for key, n in basis._N.items():            # |N| = 1 on every root chain
    basis._N[key] = (n > 0) - (n < 0)
try:                                       # a B2 chain makes ad(x_a)^2 odd
    for rt in basis.roots:
        basis.divided_powers(rt.coeffs)
except AssertionError as exc:
    if "non-integral divided power" in str(exc):
        raised.append("divided")
basis = build_chevalley(load_datum("SL3"))
a = basis.roots[0].coeffs                  # double an entry of h_a that pairs
h = list(basis._coroot_h[a])               # with a, so <a, h_a> != 2
k = next(k for k, x in enumerate(h) if x * basis.pairing(a, k))
h[k] *= 2
basis._coroot_h[a] = tuple(h)
try:
    basis.divided_powers(a)
except AssertionError as exc:
    if "at x_-a" in str(exc):
        raised.append("coroot")
coords = centralizer.BorelCoordinates(build_chevalley(load_datum("SL3").dual_datum()), QQ)
half = centralizer.peel_unipotent(coords, [(coords.pos[0], Fraction(1, 2))], QQ)
try:                                       # u1 = 1/2 is no integer to reduce mod 5
    centralizer.reduce_integral(half, GF(5))
except centralizer.PeelingError as exc:
    if "not integral" in str(exc):
        raised.append("integral")
print(__debug__, *raised)
"""


def run_python(*args):
    """Run python with the liedual under test first on the path."""
    src = str(Path(liedual.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def run_optimized(*args):
    return run_python("-O", *args)


def test_checks_raise_under_python_O():
    result = run_optimized("-c", SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "counit:SL2", "counit:G2", "torsion",
                                     "borel", "chain", "divided", "coroot",
                                     "integral"]


def test_negative_control_fails_under_python_O():
    result = run_optimized("-m", "liedual.cli", "check-all", "--presets", "SL3",
                           "--ring", "Q", "--inject-sign-error")
    assert result.returncode == 2, result.stderr
    assert "FAIL SL3: Jacobi identity" in result.stdout.splitlines()


def test_check_all_is_the_same_under_python_O():
    plain = run_python("-m", "liedual.cli", "check-all")
    optimized = run_optimized("-m", "liedual.cli", "check-all")
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, and a check stripped with them
    # would pass whatever it was meant to catch
    src = Path(liedual.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
