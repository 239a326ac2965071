"""Command-line surface: datum reports, centralizer presentations with
verdicts, and the full invariant suite.

Exit codes: 0 pass, 2 mathematical mismatch (also a failed internal check),
3 resource budget exceeded, 4 bad input (including bad-prime refusals).
"""

import argparse
import json
import os
import sys

import liedual

from .centralizer import (BadPrimeError, compute_nG, f_form,
                          present_centralizer)
from .chevalley import ad_kernel_dim, build_chevalley, principal_e
from .commalg import DEFAULT_BUDGET, BudgetExceeded
from .loop_oracle import basic_form, compare_report, pi0_order
from .rings import QQ, ring_from_name
from .root_datum import RootDatumError, load_datum, preset_names

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4

RING_CHOICES = ["Q", "F2", "F3", "F5", "F7", "F11", "F13"]

# SL3/Q already takes seconds at --truncate 1000; far more exhausts memory
MAX_TRUNCATE = 1000


def _load_from_args(args):
    if args.preset:
        return load_datum(args.preset)
    with open(args.datum_file) as f:
        text = f.read()
    return load_datum(text)


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cache_key(parts):
    """Content address of a command's document: its inputs, the schema and
    the library version, since another release may compute differently."""
    import hashlib  # only here: a run without --cache never loads it
    blob = json.dumps([SCHEMA_VERSION, liedual.__version__] + parts,
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_get(args, key):
    """The cached document, or None on a miss.  A missing, unreadable or
    corrupt entry is a miss, and so is one without the command's shape: its
    schema and command must match and, for centralizer, verdict.pass must be
    a bool.  On a miss the caller recomputes and overwrites the entry."""
    try:
        with open(os.path.join(args.cache, f"{key}.json")) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if not (isinstance(doc, dict) and doc.get("schema") == SCHEMA_VERSION
            and doc.get("command") == args.command):
        return None
    if args.command == "centralizer":
        verdict = doc.get("verdict")
        if not (isinstance(verdict, dict)
                and isinstance(verdict.get("pass"), bool)):
            return None
    return doc


def _cache_put(args, key, doc):
    """Write the entry to a temporary file and rename it into place, so no
    reader ever sees a half-written entry."""
    import tempfile  # only here: a run without --cache never loads it
    os.makedirs(args.cache, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", dir=args.cache, suffix=".tmp",
                                     delete=False) as f:
        f.write(json.dumps(doc, sort_keys=True, default=str))
    os.replace(f.name, os.path.join(args.cache, f"{key}.json"))


def _cached(args, parts, build):
    """Emit the command's document and return it: build() without --cache;
    with it, the cache entry keyed by parts on a hit, else build(), which
    is then written to the cache."""
    if not args.cache:
        doc = build()
    else:
        key = _cache_key(parts)
        doc = _cache_get(args, key)
        if doc is None:
            doc = build()
            _cache_put(args, key, doc)
    _emit(doc, args)
    return doc


def cmd_datum_info(args):
    d = _load_from_args(args)
    _cached(args, ["datum-info", d.to_document()], lambda: {
        "schema": SCHEMA_VERSION,
        "command": "datum-info",
        "name": d.name,
        "rank": d.rank,
        "derived_rank": d.derived_rank,
        "roots": len(d.roots()),
        "length_ratio": d.length_ratio(),
        "exponents": d.exponents(),
        "pi0": str(d.component_group()),
        "pi0_invariant_factors": list(d.component_group().invariant_factors),
        "n_G": compute_nG(d),
        "e_coefficients": d.coroot_length_sq(),   # principal_e's values
    })
    return EXIT_PASS


def cmd_centralizer(args):
    d = _load_from_args(args)
    ring = ring_from_name(args.ring)

    def build():
        pres = present_centralizer(d, ring, truncation=args.truncate,
                                   budget=args.budget)
        return {
            "schema": SCHEMA_VERSION,
            "command": "centralizer",
            "presentation": pres.to_document(),
            "verdict": compare_report(pres, d, args.truncate),
        }

    doc = _cached(args, ["centralizer", d.to_document(), args.ring,
                         args.truncate, args.budget], build)
    return EXIT_PASS if doc["verdict"]["pass"] else EXIT_MISMATCH


def _flip_one_sign(basis):
    """Negate N(a, b) for the first pair (a, b) of the table, through the
    code key of the pair, and not N(b, a): a consistent sign change would
    pass every check.  Returns (a, b), or None for a table with no pair."""
    table = basis.structure_constant_table()
    if not table:
        return None
    a, b, _ = table[0]
    key = basis._key(basis._code[a], basis._code[b])
    basis._N[key] = -basis._N[key]
    return a, b


def _suite_checks(data, rings, truncate, budget, inject_sign_error=False):
    """One (label, passed) record per invariant check on each (name, datum)
    of data; passed is None when the check ran out of budget."""
    for name, d in data:
        dd = d.dual_datum()
        yield (f"{name}: duality involution",
               dd.dual_datum().cochar_basis == d.cochar_basis)
        yield (f"{name}: |pi0| = gcd of coroot minors",
               d.component_group().torsion_order == pi0_order(d))
        basis = build_chevalley(dd)
        if inject_sign_error and not _flip_one_sign(basis):
            yield (f"{name}: injected sign error (no root pair to flip)", False)
        # cubic in the dimension, but a flipped sign fails at an early triple
        if inject_sign_error or d.derived_rank <= 4:
            try:
                basis.verify_jacobi()
                jac = True
            except AssertionError:
                jac = False
            yield (f"{name}: Jacobi identity", jac)
        e = principal_e(basis, d, QQ)
        yield (f"{name}: e regular over Q",
               ad_kernel_dim(basis, e, QQ) == d.rank)
        theta = d.highest_root().coroot
        yield (f"{name}: d_Ad = (theta,theta)_Kil / 2 = 2 h^vee",
               d.killing_form(theta, theta)
               == 2 * (d.two_rho_degree(theta) + 2))
        yield (f"{name}: f = -basic form",
               f_form(d) == [[-x for x in row] for row in basic_form(d)])
        if d.derived_rank <= 3:
            for ring_name in rings:
                ring = ring_from_name(ring_name)
                try:
                    pres = present_centralizer(d, ring, truncation=truncate,
                                               budget=budget)
                except BadPrimeError:
                    yield (f"{name}/{ring_name}: bad prime refused", True)
                    continue
                except BudgetExceeded:
                    yield (f"{name}/{ring_name}: budget exceeded", None)
                    continue
                except AssertionError as exc:
                    yield (f"{name}/{ring_name}: {exc}", False)
                    continue
                verdict = compare_report(pres, d, truncate)
                yield (f"{name}/{ring_name}: series, dimension, center",
                       verdict["pass"])


def cmd_check_all(args):
    # every name is resolved before the first check prints its line
    data = [(n, load_datum(n)) for n in args.presets or preset_names()]
    if not args.presets:
        data = [(n, d) for n, d in data if d.derived_rank <= 2 and d.central_rank == 0]
    rings = [args.ring] if args.ring else RING_CHOICES
    mismatches = exhausted = 0
    for label, ok in _suite_checks(data, rings, args.truncate, args.budget,
                                   inject_sign_error=args.inject_sign_error):
        print(("PASS" if ok else "FAIL"), label)
        if ok is None:
            exhausted += 1
        elif not ok:
            mismatches += 1
    failures = mismatches + exhausted
    print(f"{'OK' if not failures else 'FAILED'}: {failures} failing checks")
    if mismatches:
        return EXIT_MISMATCH
    return EXIT_BUDGET if exhausted else EXIT_PASS


def build_parser():
    p = argparse.ArgumentParser(
        prog="liedual",
        description="dual-group centralizer presentations and loop-space checks")
    sub = p.add_subparsers(dest="command", required=True)

    info = sub.add_parser("datum-info", help="roots, ratio, exponents, pi0, n_G, e")
    cent = sub.add_parser("centralizer", help="presentation plus oracle verdict")
    check = sub.add_parser("check-all", help="invariant suite over presets")
    for sp in (info, cent):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--preset", choices=preset_names())
        g.add_argument("--datum-file")
        sp.add_argument("--out")
        sp.add_argument("--cache")
    for sp in (cent, check):
        sp.add_argument("--truncate", type=int, default=40)
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cent.add_argument("--ring", choices=RING_CHOICES, default="Q")
    check.add_argument("--presets", nargs="+")
    check.add_argument("--ring", choices=RING_CHOICES)
    check.add_argument("--inject-sign-error", action="store_true",
                       help="negative control: flip one structure constant")
    info.set_defaults(func=cmd_datum_info)
    cent.set_defaults(func=cmd_centralizer)
    check.set_defaults(func=cmd_check_all)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for mismatches
        return EXIT_PASS if exc.code == 0 else EXIT_BAD_INPUT
    if "truncate" in args and not (1 <= args.truncate <= MAX_TRUNCATE
                                   and args.budget >= 0):
        print(f"--truncate must be 1..{MAX_TRUNCATE}, --budget >= 0", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except BadPrimeError as exc:
        print(f"bad prime: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (RootDatumError, OSError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
