"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 --workload present-mid --workload series-large
    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles (``statistics.quantiles(n=4)``) and the
interquartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  A benchmark is steady when every spread except ``setup_s``
stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; every workload when omitted")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the medians and spreads as JSON here")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, steady = {"run_seconds": spec["run_seconds"]}, True
    for name in names:
        values, speeds = {metric: [] for metric in bounds}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or not json.loads(lines[-1])["correct"]:
                print(f"{name} seed {seed}: run failed\n{out.stdout}{out.stderr}")
                return 1
            result = json.loads(lines[-1])
            summary.setdefault("env", json.loads(lines[0].removeprefix("env ")))
            raw = json.loads(next(line for line in lines if line.startswith("raw "))[4:])
            speeds.append(raw["core_speed"])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.4f}" for m, v in values.items())
                + f" core_speed={speeds[-1]:.3f}", flush=True)
        # the median core speed shows drift of the machine between baselines
        summary[name] = {"core_speed": statistics.median(speeds)}
        print(f"{name} core speed: median {summary[name]['core_speed']:.3f} "
              "of the reference", flush=True)
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = metric == "setup_s" or spread < bounds[metric] / 3
            steady = steady and ok
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": vals}
            print(f"{name} {metric}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.3f} bound {bounds[metric]} "
                  f"{'ok' if ok else 'NOT STEADY'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
