"""Benchmark of the liedual pipeline on a fixed ladder of presets.

One workload per process.  A run is a closed loop with one caller: passes over
the workload's items, each item started only after the previous one returned,
each item's mathematical verdict checked.  The seed sets the item order of
every pass; the library sees only the preset and ring names.

    python3 perfbench/run.py --workload present-mid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --trace 1      # every workload, each in a fresh process
    python3 perfbench/run.py --roadmap-table

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it runs one unmeasured warm-up pass, then alternates untraced passes with
passes under the stage trace (``tracing.py``) for ``--seconds``, and reports the
per-layer metrics, the tracing overhead and a per-item stage table.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

``--roadmap-table`` runs the rows of ROADMAP's "Baseline" table once each under
the stage trace and prints their stage table.

Every reported time is corrected to a reference core speed (``speed.py``): on
a shared VM the same pass takes 25-35% more or less wall time from one minute
to the next.  The raw wall and CPU clocks are printed beside the result.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

# ``workloads`` and ``tracing`` import liedual, so they are imported where they
# are used: the set-up probe times that import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end within 180 s: no item is started after DEADLINE_S, and no
# item may run longer than ITEM_LIMIT_S or past the deadline.
ITEM_LIMIT_S = 60.0
DEADLINE_S = 150.0
SETUP_SAMPLES = 7

# Share groups: self time over pass time, per layer of src/liedual.
SHARE_GROUPS = {
    "root_datum": ["root_datum"],
    "chevalley": ["chevalley"],
    "centralizer.ideal": ["centralizer.ideal"],
    "commalg": ["commalg.groebner", "commalg.krull", "commalg.hilbert"],
    "centralizer.presentation": ["centralizer.presentation"],
    "loop_oracle": ["loop_oracle"],
}

# Columns of the per-item stage table (the ROADMAP "Baseline" layout), in ms.
STAGE_COLUMNS = [("chevalley", ["chevalley"]),
                 ("ideal", ["centralizer.ideal"]),
                 ("groebner", ["commalg.groebner"]),
                 ("krull+hilbert", ["commalg.krull", "commalg.hilbert"]),
                 ("presentation", ["centralizer.presentation"])]


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside an item; a BaseException so no handler in the
    library can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout


def run_item(check, preset_name, ring_name, limit):
    """The item's failure reason, or None when its verdict holds."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return check(preset_name, ring_name)
    except ItemTimeout:
        return f"exceeded the {limit:.1f} s item limit"
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """One pass.  All times are speed-corrected seconds (``speed.py``); the
    raw clocks and the mean core speed are kept for the report."""

    def __init__(self, traced):
        self.traced = traced
        self.complete = False
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = self.speed = 0.0
        self.item_s = {}         # item label -> seconds
        self.self_time = {}      # (layer, item label) -> self seconds
        self.counts = {}


def run_pass(check, order, tracer, deadline, failures):
    rec = Pass(tracer is not None)
    with SpeedProbe() as probe:
        _run_items(rec, check, order, tracer, deadline, failures)
    rec.wall, rec.cpu = probe.corrected()
    rec.raw_wall, rec.raw_cpu, rec.speed = probe.wall, probe.cpu, probe.speed
    # Spans and item times include waiting and the probe's kernels: scale them
    # like the pass as a whole, so that they add up to the corrected pass.
    scale = rec.wall / probe.wall
    rec.item_s = {label: t * scale for label, t in rec.item_s.items()}
    if tracer is not None:
        self_time, rec.counts = tracer.take()
        rec.self_time = {key: t * scale for key, t in self_time.items()}
    return rec


def _run_items(rec, check, order, tracer, deadline, failures):
    for preset_name, ring_name in order:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        label = f"{preset_name}/{ring_name}"
        if tracer is not None:
            tracer.item = label
        t0 = time.perf_counter()
        reason = run_item(check, preset_name, ring_name, min(ITEM_LIMIT_S, remaining))
        rec.item_s[label] = time.perf_counter() - t0
        if reason is not None:
            failures.append((label, reason))
    else:
        rec.complete = True


def measure_setup(workload):
    """(corrected, raw) seconds for a fresh interpreter to import liedual and
    load the workload."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    corrected, raw = map(float, out.stdout.split()[-2:])
    return corrected, raw


def percentile_note(values):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}; fewer than 11 samples, so no percentile has 10 beyond it"
    ordered = sorted(values)
    k = n - 11
    return f"p{100 * (k + 1) // n}={ordered[k]:.4f} s, n={n}"


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "liedual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(),
            "source_sha256": digest.hexdigest()[:16]}


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stage_table(labels, traced):
    """Per-item stage times in ms, median over the traced passes that ran the item."""
    header = ["item"] + [c for c, _ in STAGE_COLUMNS] + ["total"]
    lines = ["stage table, ms at the reference core speed, median over traced passes:",
             " | ".join(header)]
    for label in labels:
        ran = [p for p in traced if label in p.item_s]
        if not ran:
            continue
        row = [label]
        for _, layers in STAGE_COLUMNS:
            keys = [(layer, label) for layer in layers]
            if not any(key in p.self_time for p in ran for key in keys):
                row.append("—")      # the item never reaches this stage
                continue
            ms = statistics.median(
                sum(p.self_time.get(key, 0.0) for key in keys) for p in ran) * 1000
            row.append(f"{ms:.1f}")
        row.append(f"{statistics.median(p.item_s[label] for p in ran) * 1000:.1f}")
        lines.append(" | ".join(row))
    return lines


def layer_metrics(traced, untraced):
    import tracing
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.s"] = (statistics.median(
            sum(t for (lay, _), t in p.self_time.items() if lay == layer)
            for p in traced), "s")
    for group, layers in SHARE_GROUPS.items():
        metrics[f"{group}.share"] = (statistics.median(
            sum(t for (lay, _), t in p.self_time.items() if lay in layers) / p.wall
            for p in traced), "ratio")
    for name in tracing.COUNTS:
        metrics[name] = (traced[0].counts.get(name, 0), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in untraced), "s")
    return metrics


def run_workload(args):
    import workloads
    check, items = workloads.WORKLOADS[args.workload]
    workloads.load(args.workload)
    setup = [measure_setup(args.workload) for _ in range(SETUP_SAMPLES)]

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(args.seed)
    deadline = time.perf_counter() + DEADLINE_S
    failures = []
    modes = [None]
    warmup = []
    if args.trace:
        import tracing
        # Traced and untraced passes alternate after one unmeasured pass, so
        # that neither phase holds the process's first pass and both see the
        # same process state: the overhead is then the wrappers' own.
        modes = [None, tracing.Tracer()]
        warmup.append(run_pass(check, rng.sample(items, len(items)), None,
                               deadline, failures))
    passes = []
    start = time.perf_counter()
    while True:
        for tracer in modes:
            if tracer is not None:
                tracer.install()
            try:
                passes.append(run_pass(check, rng.sample(items, len(items)), tracer,
                                       deadline, failures))
            finally:
                if tracer is not None:
                    tracer.uninstall()
        if (not all(p.complete for p in warmup + passes)
                or time.perf_counter() - start >= args.seconds):
            break

    attempted = sum(len(p.item_s) for p in warmup + passes)
    complete = all(p.complete for p in warmup + passes)
    # a pass cut by the deadline is reported only when no pass finished
    untraced = [p for p in passes if not p.traced and p.complete] or passes
    traced = [p for p in passes if p.traced and p.complete] or passes
    counts_repeat = all(p.counts == traced[0].counts for p in traced)

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} measured passes "
          f"({sum(p.traced for p in passes)} traced, {len(warmup)} warm-up before "
          f"them), {attempted} items attempted, "
          f"{len(failures)} failed, fail_ratio {len(failures) / max(attempted, 1):.4g}")
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    if not complete:
        print(f"stopped at the {DEADLINE_S:.0f} s deadline with a pass unfinished")
    if not counts_repeat:
        print("exact counts differ between traced passes")
    walls = [p.wall for p in untraced]
    print(f"pass_s median {statistics.median(walls):.4f} s; {percentile_note(walls)}")
    # raw clocks and the core speed, medians over the untraced passes
    print("raw " + json.dumps({
        "wall_s": statistics.median(p.raw_wall for p in untraced),
        "cpu_s": statistics.median(p.raw_cpu for p in untraced),
        "core_speed": statistics.median(p.speed for p in untraced),
        "setup_s": statistics.median(raw for _, raw in setup)}))

    if args.trace:
        metrics = layer_metrics(traced, untraced)
        print(*stage_table([f"{p}/{r}" for p, r in items], traced), sep="\n")
    else:
        metrics = {
            "pass_s": (statistics.median(walls), "s"),
            "pass_cpu_s": (statistics.median(p.cpu for p in untraced), "s"),
            "setup_s": (statistics.median(c for c, _ in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failures and complete and counts_repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then one summary table."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print(*lines[:-1], sep="\n")
        if out.returncode != 0 or not lines:
            print(f"workload {name} exited with code {out.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print("workload | metric | value | unit")
    for name, res in results.items():
        print(f"{name} | fail_ratio | {res['failed'] / res['attempted']:.4g} | "
              f"{res['failed']}/{res['attempted']} items")
        for metric, m in res["metrics"].items():
            print(f"{name} | {metric} | {m['value']:.6g} | {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def roadmap_table():
    """Each row of ROADMAP's "Baseline" table once, traced, as a stage table."""
    import tracing
    import workloads
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.perf_counter() + DEADLINE_S
    tracer, failures, rows = tracing.Tracer(), [], []
    for check, preset_name, ring_name in workloads.ROADMAP_ROWS:
        tracer.install()
        try:
            rows.append(run_pass(check, [(preset_name, ring_name)], tracer, deadline,
                                 failures))
        finally:
            tracer.uninstall()
    print(*stage_table([label for p in rows for label in p.item_s], rows), sep="\n")
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    return 1 if failures or not all(p.complete for p in rows) else 0


def parse_args(argv):
    with open(ROOT / "BENCHMARK.json") as f:
        default_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roadmap-table", action="store_true",
                        help='stage table of the rows of ROADMAP\'s "Baseline" table')
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    if sys.flags.optimize:
        print("refusing to run under python -O: the library's own checks are "
              "asserts, so -O would time a different program", file=sys.stderr)
        return 2
    if not (SRC / "liedual" / "__init__.py").is_file():
        print(f"no liedual sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        # set-up is ~0.1 s of CPU: sample the core speed every 5 ms
        with SpeedProbe(interval=0.005) as probe:
            import workloads
            workloads.load(args.workload)
        print(probe.corrected()[0], probe.wall)
        return 0
    if args.roadmap_table:
        return roadmap_table()
    if args.workload is None:
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
