import hashlib
import json

import pytest

import liedual
from liedual import build_chevalley, centralizer, load_datum
from liedual.cli import (EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_MISMATCH,
                         EXIT_PASS, MAX_TRUNCATE, _flip_one_sign, main)
from liedual.root_datum import MAX_CENTRAL_RANK, FiniteAbelianGroup, RootDatum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_datum_info_g2(capsys):
    code, out, _ = run(capsys, "datum-info", "--preset", "G2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["length_ratio"] == 3
    assert doc["exponents"] == [1, 5]
    assert sorted(doc["e_coefficients"]) == [1, 3]
    assert doc["schema"] == 1


def test_datum_info_pgl2(capsys):
    code, out, _ = run(capsys, "datum-info", "--preset", "PGL2")
    doc = json.loads(out)
    assert code == EXIT_PASS
    assert doc["n_G"] == 2
    assert doc["pi0_invariant_factors"] == [2]


def test_datum_info_sl2(capsys):
    code, out, _ = run(capsys, "datum-info", "--preset", "SL2")
    doc = json.loads(out)
    assert doc["n_G"] == 1
    assert doc["pi0_invariant_factors"] == []


def test_centralizer_sl2_q(capsys):
    code, out, _ = run(capsys, "centralizer", "--preset", "SL2", "--ring", "Q")
    assert code == EXIT_PASS
    doc = json.loads(out)
    gens = doc["presentation"]["generators"]
    assert len(gens) == 1 and gens[0]["degree"] == 2
    assert doc["presentation"]["relations"] == []
    assert doc["verdict"]["pass"] is True


def test_centralizer_g2_f2(capsys):
    code, out, _ = run(capsys, "centralizer", "--preset", "G2", "--ring", "F2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"]["pass"] is True
    degrees = sorted(g["degree"] for g in doc["presentation"]["generators"])
    assert degrees == [2, 4, 10]


def test_bad_prime_is_bad_input_not_crash(capsys):
    code, out, err = run(capsys, "centralizer", "--preset", "G2",
                         "--ring", "F3")
    assert code == EXIT_BAD_INPUT
    assert "prime" in err


def test_budget_exhaustion(capsys):
    code, _, err = run(capsys, "centralizer", "--preset", "G2",
                       "--ring", "Q", "--budget", "3")
    assert code == EXIT_BUDGET


def test_budget_bounds_the_triangular_solve(capsys):
    # E6sc/F7 keeps full rank at every layer: no Groebner basis is computed,
    # and the budget counts the solve's monomial products
    code, out, err = run(capsys, "centralizer", "--preset", "E6sc",
                         "--ring", "F7", "--budget", "5")
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget exceeded: triangular solve: product budget 5 exhausted\n"


def test_budget_bounds_the_triangular_solve_at_a_torsion_prime(capsys):
    # E7sc/F2 drops rank at three layers: the solve runs first there too
    code, out, err = run(capsys, "centralizer", "--preset", "E7sc",
                         "--ring", "F2", "--budget", "5")
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget exceeded: triangular solve: product budget 5 exhausted\n"


def test_unknown_preset_and_bad_file(capsys, tmp_path):
    code, _, _ = run(capsys, "centralizer", "--preset", "NOPE")
    assert code == EXIT_BAD_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "datum-info", "--datum-file", str(bad))
    assert code == EXIT_BAD_INPUT
    code, _, _ = run(capsys, "datum-info", "--datum-file",
                     str(tmp_path / "missing.json"))
    assert code == EXIT_BAD_INPUT
    # a fraction is refused, not cut off to SL3's Cartan matrix
    bad.write_text(json.dumps({"cartan": [[2.9, -1], [-1, 2]]}))
    code, out, err = run(capsys, "datum-info", "--datum-file", str(bad))
    assert code == EXIT_BAD_INPUT and out == "" and "not an integer" in err
    # a document without a Cartan matrix is bad input, not a traceback
    bad.write_text(json.dumps({"name": "x"}))
    code, out, err = run(capsys, "datum-info", "--datum-file", str(bad))
    assert code == EXIT_BAD_INPUT and out == "" and "no cartan" in err
    for doc, msg in [({"cartan": [[2], [-1, 2]]}, "not square"),
                     ({"cartan": [[2]], "central_rank": -1}, "negative"),
                     ({"cartan": [[2]], "name": 5}, "not a string")]:
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "datum-info", "--datum-file", str(bad))
        assert code == EXIT_BAD_INPUT and out == "" and msg in err, doc


@pytest.mark.parametrize("command", ["datum-info", "centralizer"])
def test_a_misspelled_datum_key_is_bad_input(command, capsys, tmp_path):
    # refused, not read as SL2 in place of PGL2 with exit code 0
    bad = tmp_path / "pgl2.json"
    bad.write_text(json.dumps({"cartan": [[2]], "latice": "adjoint"}))
    code, out, err = run(capsys, command, "--datum-file", str(bad))
    assert code == EXIT_BAD_INPUT and out == ""
    assert err.startswith("bad input: unknown datum key 'latice'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["datum-info", "centralizer"])
def test_a_central_rank_above_the_ceiling_is_bad_input(command, capsys, tmp_path):
    # the lattice is (rank + central_rank)-square: refused up front rather
    # than built, as a huge central_rank would exhaust memory
    datum = tmp_path / "torus.json"
    datum.write_text(json.dumps({"cartan": [[2]], "central_rank": MAX_CENTRAL_RANK + 1}))
    code, out, err = run(capsys, command, "--datum-file", str(datum))
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == (f"bad input: central_rank {MAX_CENTRAL_RANK + 1} exceeds the "
                   f"ceiling {MAX_CENTRAL_RANK}\n")
    datum.write_text(json.dumps({"cartan": [[2]], "central_rank": MAX_CENTRAL_RANK}))
    assert run(capsys, command, "--datum-file", str(datum))[0] == EXIT_PASS


def test_datum_file_that_is_a_directory_is_bad_input(capsys, tmp_path):
    code, out, err = run(capsys, "datum-info", "--datum-file", str(tmp_path))
    assert code == EXIT_BAD_INPUT and out == ""
    assert err.startswith("bad input:") and "Traceback" not in err


def test_cache_that_is_a_file_is_bad_input(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.write_text("")
    code, out, err = run(capsys, "datum-info", "--preset", "SL2",
                         "--cache", str(cache))
    assert code == EXIT_BAD_INPUT and out == ""
    assert err.startswith("bad input:") and "Traceback" not in err


def test_invalid_truncate(capsys):
    code, _, _ = run(capsys, "centralizer", "--preset", "SL2", "--truncate", "0")
    assert code == EXIT_BAD_INPUT
    # refused up front rather than running out of memory
    code, _, err = run(capsys, "centralizer", "--preset", "SL2",
                       "--truncate", "100000000000")
    assert code == EXIT_BAD_INPUT and "--truncate" in err
    code, _, _ = run(capsys, "centralizer", "--preset", "SL2", "--ring", "F2",
                     "--truncate", str(MAX_TRUNCATE))
    assert code == EXIT_PASS
    code, _, err = run(capsys, "centralizer", "--preset", "SL2", "--budget", "-1")
    assert code == EXIT_BAD_INPUT and "--budget" in err


@pytest.mark.parametrize("argv", [
    ["datum-info", "--preset", "SL2", "--truncate", "5"],
    ["datum-info", "--preset", "SL2", "--budget", "3"],
    ["check-all", "--presets", "SL2", "--out", "x"],
    ["check-all", "--presets", "SL2", "--cache", "d"],
    ["check-all", "--presets"],
])
def test_an_option_the_command_does_not_read_is_bad_input(capsys, tmp_path,
                                                         monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT and out == "" and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_datum_file_round_trip(capsys, tmp_path):
    doc = {"name": "custom", "cartan": [[2, -1], [-1, 2]],
           "lattice": {"basis": [[1, 0], [0, 1]]}, "central_rank": 0}
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "datum-info", "--datum-file", str(f))
    assert code == EXIT_PASS
    assert json.loads(out)["exponents"] == [1, 2]


def test_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "centralizer", "--preset", "Sp4", "--ring", "F5",
        "--out", str(a))
    run(capsys, "centralizer", "--preset", "Sp4", "--ring", "F5",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# argv -> (exit code, first 16 hex digits of the sha256 of stdout), stderr
# empty, pinned at commit 5d17086: a change meant to keep the output
# byte-identical must leave each of these as it is
CLI_OUTPUT_DIGESTS = {
    ("check-all",): (EXIT_PASS, "153266846d0228f5"),
    ("check-all", "--presets", "SL3", "G2", "--ring", "F5",
     "--inject-sign-error"): (EXIT_MISMATCH, "f36f59a76b537b8f"),
    ("centralizer", "--preset", "SL4", "--ring", "Q"): (EXIT_PASS, "2f2344a53186f249"),
    ("centralizer", "--preset", "G2", "--ring", "F2"): (EXIT_PASS, "ff38d824cda48b18"),
    ("centralizer", "--preset", "Spin8", "--ring", "F2"): (EXIT_PASS, "6e755143d080a1c3"),
    ("centralizer", "--preset", "F4", "--ring", "F3"): (EXIT_PASS, "4a480d3c7e0eaa54"),
    ("centralizer", "--preset", "E6sc", "--ring", "F3"): (EXIT_PASS, "8db122b8523392b5"),
    ("centralizer", "--preset", "E7sc", "--ring", "F2", "--truncate", "10"):
        (EXIT_PASS, "3a20cfbc67cd9379"),
    ("centralizer", "--preset", "E7sc", "--ring", "F2", "--truncate", "16"):
        (EXIT_PASS, "c6d5ff5cded88e6c"),
    ("centralizer", "--preset", "E7sc", "--ring", "F2", "--truncate", "40"):
        (EXIT_PASS, "4d893018d9ed9032"),
}


@pytest.mark.parametrize("argv", list(CLI_OUTPUT_DIGESTS), ids=" ".join)
def test_cli_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == \
        CLI_OUTPUT_DIGESTS[argv]


def test_cache_hit_reproduces_output(capsys, tmp_path):
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "centralizer", "--preset", "SL3", "--ring", "F7",
        "--cache", str(cache), "--out", str(a))
    files = list(cache.iterdir())
    assert len(files) == 1
    run(capsys, "centralizer", "--preset", "SL3", "--ring", "F7",
        "--cache", str(cache), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert list(cache.iterdir()) == files


def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path):
    cache = tmp_path / "cache"
    first = run(capsys, "datum-info", "--preset", "G2", "--cache", str(cache))
    (entry,) = cache.iterdir()
    entry.write_text('{"schema": 1, "na')      # a write cut short
    again = run(capsys, "datum-info", "--preset", "G2", "--cache", str(cache))
    assert again == first and first[0] == EXIT_PASS
    # the corrupt entry was overwritten with the recomputed document
    assert list(cache.iterdir()) == [entry]
    assert json.loads(entry.read_text()) == json.loads(first[1])


@pytest.mark.parametrize("entry_doc", [
    {"schema": 1},
    {"schema": 1, "command": "datum-info", "verdict": {"pass": True}},
    {"schema": 2, "command": "centralizer", "verdict": {"pass": True}},
    {"schema": 1, "command": "centralizer", "verdict": {"pass": "yes"}},
    {"schema": 1, "command": "centralizer", "verdict": [True]},
    [],
])
def test_cache_entry_without_the_command_shape_is_a_miss(capsys, tmp_path,
                                                         entry_doc):
    argv = ["centralizer", "--preset", "SL2", "--ring", "Q"]
    uncached = run(capsys, *argv)
    cache = tmp_path / "cache"
    run(capsys, *argv, "--cache", str(cache))
    (entry,) = cache.iterdir()
    entry.write_text(json.dumps(entry_doc))
    again = run(capsys, *argv, "--cache", str(cache))
    assert again == uncached and uncached[0] == EXIT_PASS
    # the malformed entry was overwritten with the recomputed document
    assert list(cache.iterdir()) == [entry]
    assert json.loads(entry.read_text()) == json.loads(uncached[1])


def test_cache_key_depends_on_config(capsys, tmp_path):
    cache = tmp_path / "cache"
    run(capsys, "centralizer", "--preset", "SL2", "--ring", "Q",
        "--cache", str(cache))
    run(capsys, "centralizer", "--preset", "SL2", "--ring", "F5",
        "--cache", str(cache))
    assert len(list(cache.iterdir())) == 2


def test_cache_key_depends_on_version(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    first = run(capsys, "datum-info", "--preset", "SL2", "--cache", str(cache))
    monkeypatch.setattr(liedual, "__version__", liedual.__version__ + ".post1")
    again = run(capsys, "datum-info", "--preset", "SL2", "--cache", str(cache))
    assert again == first
    # a new version misses the old entry and writes its own
    assert len(list(cache.iterdir())) == 2


def test_check_all_passes(capsys):
    code, out, _ = run(capsys, "check-all", "--presets", "SL2", "PGL2",
                       "--ring", "F5", "--truncate", "16")
    assert code == EXIT_PASS
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith(("PASS", "OK")) for ln in lines)


def test_check_all_truncate_one_trivially_passes(capsys):
    code, out, _ = run(capsys, "check-all", "--presets", "SL2",
                       "--ring", "Q", "--truncate", "1")
    assert code == EXIT_PASS


def test_check_all_refuses_an_unknown_name_before_any_check(capsys):
    code, out, err = run(capsys, "check-all", "--presets", "SL2", "NOPE",
                         "--ring", "Q")
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "bad input: unknown preset or document: 'NOPE'\n"


def test_check_all_negative_control(capsys):
    code, out, _ = run(capsys, "check-all", "--presets", "SL3",
                       "--ring", "Q", "--truncate", "10",
                       "--inject-sign-error")
    assert code == EXIT_MISMATCH
    assert any(ln.startswith("FAIL") and "Jacobi" in ln
               for ln in out.splitlines())


@pytest.mark.parametrize("preset", ["SL2", "GL2"])
def test_negative_control_fails_a_datum_with_no_root_pair(capsys, preset):
    code, out, _ = run(capsys, "check-all", "--presets", preset,
                       "--ring", "Q", "--truncate", "10", "--inject-sign-error")
    assert code == EXIT_MISMATCH
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL ")] == [
        f"FAIL {preset}: injected sign error (no root pair to flip)"]


@pytest.mark.parametrize("preset", ["SL6", "E6sc"])
def test_negative_control_runs_the_jacobi_check_above_rank_four(capsys,
                                                               preset):
    code, out, _ = run(capsys, "check-all", "--presets", preset,
                       "--inject-sign-error")
    assert code == EXIT_MISMATCH
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL ")] == [
        f"FAIL {preset}: Jacobi identity"]
    # without the flag the Jacobi check is skipped at this rank
    code, out, _ = run(capsys, "check-all", "--presets", preset)
    assert code == EXIT_PASS and "Jacobi" not in out


def test_the_injected_sign_error_flips_one_entry_and_not_its_partner():
    basis = build_chevalley(load_datum("SL3").dual_datum())
    table = basis.structure_constant_table()
    a, b, n = table[0]
    assert basis.N(b, a) == -n
    assert _flip_one_sign(basis) == (a, b)
    assert (basis.N(a, b), basis.N(b, a)) == (-n, -n)
    # the flip rewrote the pair's own entry and added none
    flipped = basis.structure_constant_table()
    assert [old for old, new in zip(table, flipped) if old != new] == [(a, b, n)]
    assert len(flipped) == len(table)


def _only_failure(capsys, preset):
    code, out, _ = run(capsys, "check-all", "--presets", preset,
                       "--ring", "F5", "--truncate", "10")
    assert code == EXIT_MISMATCH
    (failed,) = [ln for ln in out.splitlines() if ln.startswith("FAIL ")]
    return failed


def test_check_all_fails_the_d_ad_line_alone_under_a_doubled_rho(
        capsys, monkeypatch):
    two_rho = RootDatum.two_rho
    monkeypatch.setattr(RootDatum, "two_rho",
                        lambda self: tuple(2 * x for x in two_rho(self)))
    assert _only_failure(capsys, "SL3") == \
        "FAIL SL3: d_Ad = (theta,theta)_Kil / 2 = 2 h^vee"


def test_check_all_fails_the_f_line_alone_under_unit_coroot_lengths(
        capsys, monkeypatch):
    monkeypatch.setattr(RootDatum, "coroot_length_sq",
                        lambda self: [1] * self.derived_rank)
    assert _only_failure(capsys, "G2") == "FAIL G2: f = -basic form"


def test_check_all_fails_the_pi0_line_alone_under_an_extra_z2(
        capsys, monkeypatch):
    # the center of the dual is a component group too, so comparing with it
    # would let this mutant pass
    component_group = RootDatum.component_group
    monkeypatch.setattr(RootDatum, "component_group", lambda self: (
        FiniteAbelianGroup((2,) + component_group(self).invariant_factors)))
    assert _only_failure(capsys, "PGL3") == \
        "FAIL PGL3: |pi0| = gcd of coroot minors"


def test_check_all_reports_budget_per_check(capsys):
    code, out, _ = run(capsys, "check-all", "--presets", "SL3", "G2",
                       "--ring", "Q", "--budget", "2")
    lines = out.splitlines()
    assert code == EXIT_BUDGET
    assert "PASS SL3/Q: series, dimension, center" in lines
    assert "FAIL G2/Q: budget exceeded" in lines
    assert lines[-1] == "FAILED: 1 failing checks"
    # a mathematical failure outranks an exhausted budget
    code, out, _ = run(capsys, "check-all", "--presets", "SL3", "G2",
                       "--ring", "Q", "--budget", "2", "--inject-sign-error")
    assert code == EXIT_MISMATCH
    assert "FAIL G2/Q: budget exceeded" in out.splitlines()


def _perturb_solve(monkeypatch, change):
    """Make present_centralizer see change(uring, images, caps) of the
    triangular solve's images and caps."""
    solve = centralizer.triangular_solve

    def perturbed(uring, gens, budget):
        images, free, caps, generators = solve(uring, gens, budget)
        images, caps = change(uring, images, caps)
        return images, free, caps, generators
    monkeypatch.setattr(centralizer, "triangular_solve", perturbed)


def _shift_u1(uring, images, caps):
    """Add 1 to the image of u1, a pivot: the point check must fail."""
    images = list(images)
    images[0] = {**images[0], (0,) * uring.nvars: uring.coeff.coerce(1)}
    return images, caps


NOT_CENTRALIZED = "the solved pivots do not centralize e at the check point"


def test_a_failed_internal_check_is_a_mismatch_without_a_traceback(
        capsys, monkeypatch):
    _perturb_solve(monkeypatch, _shift_u1)
    code, out, err = run(capsys, "centralizer", "--preset", "SL3", "--ring", "Q")
    assert code == EXIT_MISMATCH and out == ""
    assert err.splitlines() == [f"mismatch: {NOT_CENTRALIZED}"]


def test_check_all_records_a_failed_internal_check_and_goes_on(
        capsys, monkeypatch):
    _perturb_solve(monkeypatch, _shift_u1)
    code, out, err = run(capsys, "check-all", "--presets", "SL3", "G2",
                         "--ring", "Q")
    lines = out.splitlines()
    assert code == EXIT_MISMATCH and err == ""
    assert [ln for ln in lines if ln.startswith("FAIL ")] == \
        [f"FAIL SL3/Q: {NOT_CENTRALIZED}", f"FAIL G2/Q: {NOT_CENTRALIZED}"]
    assert "PASS G2: f = -basic form" in lines
    assert lines[-1] == "FAILED: 2 failing checks"


def test_a_leftovers_basis_off_borels_shape_is_a_mismatch(capsys, monkeypatch):
    # Spin8/F2: u9 is free, and the cap (u9, 3) holds u9^3, no power 2^k
    _perturb_solve(monkeypatch, lambda uring, images, caps: (
        images, caps + [(uring.names.index("u9"), 3)]))
    code, out, err = run(capsys, "centralizer", "--preset", "Spin8", "--ring", "F2")
    assert code == EXIT_MISMATCH and out == ""
    assert err.splitlines() == [
        "mismatch: Spin8 over F_2: the leftovers' basis holds u9^3, not a "
        "p^k-th power of a generator (Borel's theorem)"]
