"""The benchmark's own checks; run with ``python3 -m pytest perfbench/test_bench.py``.

Each test starts ``run.py`` in a fresh interpreter on the smallest workload with
a one-second measuring window, so one pass (plus one traced pass) per run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, flags=()):
    out = subprocess.run([sys.executable, *flags, str(RUN), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=180)
    return out.returncode, out.stdout.splitlines(), out.stderr


def _result(seed, trace):
    code, lines, err = _run("--workload", "badprime-laurent", "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace))
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    return result["metrics"]


def test_two_traced_runs_give_identical_exact_counts():
    counts = [{name: m["value"] for name, m in _result(seed, 1).items()
               if m["unit"] == "count"}
              for seed in (1, 2)]
    assert counts[0] == counts[1]
    assert counts[0]["commalg.groebner.calls"] == 11


def test_metric_names_and_units_match_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _result(3, trace)
        assert {name: m["unit"] for name, m in metrics.items()} == \
            {m["name"]: m["unit"] for m in SPEC[key]}


def test_refuses_python_dash_o():
    code, lines, err = _run("--workload", "badprime-laurent", flags=("-O",))
    assert code != 0 and not lines and "-O" in err
