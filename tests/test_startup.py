"""What a fresh interpreter loads for ``import liedual``: the pipeline's own
modules, and not the standard library's heavier ones that it does not run."""

import os
import subprocess
import sys
from pathlib import Path

import liedual

SRC = str(Path(liedual.__file__).resolve().parent.parent)


def run_isolated(script):
    """Run script in python -S, so that no site hook preloads a module, with
    the liedual under test alone on the path."""
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_leaves_out_dataclasses_inspect_and_json():
    loaded = run_isolated("""
import sys
import liedual
print(*sorted(m for m in ("dataclasses", "inspect", "json") if m in sys.modules))
from liedual import load_datum, preset
d = load_datum('{"name": "PGL3", "cartan": [[2, -1], [-1, 2]], "lattice": "adjoint"}')
print("json" in sys.modules, d == preset("PGL3"), d.component_group())
""")
    assert loaded == ["True", "True", "Z/3"]


def test_cli_import_leaves_out_tempfile_and_pathlib():
    # hashlib too: only --cache computes a key
    loaded = run_isolated("""
import sys
import liedual.cli
print(*sorted(m for m in ("hashlib", "pathlib", "tempfile") if m in sys.modules))
""")
    assert loaded == []
