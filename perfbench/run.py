#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy loads: the products here
# are a few hundred rows by ten columns, where threads add noise, not speed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
# A median sets one slow round aside only from three rounds on; a workload
# whose first round alone fills the run is measured once.
MIN_ROUNDS = 3

import workloads  # noqa: E402  (after the thread settings)
from tracing import Tracer, layer_table, per_layer_metrics  # noqa: E402


def import_package():
    """Import the package afresh: drop any loaded copy and import it again."""
    for name in [m for m in sys.modules if m == "sparsemax" or m.startswith("sparsemax.")]:
        del sys.modules[name]
    package = importlib.import_module("sparsemax")
    importlib.import_module("sparsemax.cli")
    return package


def run_rounds(workload, seconds: float, tracer=None, first=None):
    """Whole rounds until `seconds` of program time are measured, and at
    least MIN_ROUNDS of them unless the first round alone took `seconds`.

    Returns the round times, the outputs of the first round (recorded for
    the checks) and the numbers of the rounds whose outputs differ from
    `first`'s, or from the first round's when `first` is None.  Only the
    first outputs are kept, so the memory held does not grow with rounds.
    """
    times, differing = [], []
    while not times or (sum(times) < seconds or len(times) < MIN_ROUNDS) and times[0] < seconds:
        elapsed, output = workload.run_round(tracer, record=first is None and not times)
        times.append(elapsed)
        if first is None:
            first = output
        elif not workload.same(first, output):
            differing.append(len(times))
    return times, first, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparsemax" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    workload = workloads.make(args.workload, args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        package = import_package()
        workload.setup(package)
        setup_times.append(perf_counter() - started)

    workload.prepare(package)
    if args.workload.startswith("projection"):
        workload.run_round()  # warm-up: first-call costs; neither counted nor reported
    times, checked, differing = run_rounds(workload, args.seconds)
    # Read before any check runs: the checks' own memory (scipy, the
    # projection checks' temporaries) stays out of the figure.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # One round's operations are checked, whatever the number of rounds;
    # every other round must repeat its outputs exactly.
    tally = workloads.Tally()
    workload.check(checked, tally)
    for index in differing:
        tally.mismatch(f"round {index} gave other outputs than round 1")

    if args.trace:
        # A fresh import, wrapped: every binding of every public function.
        tracer = Tracer()
        package = import_package()
        tracer.install(package)
        workload.prepare(package)
        traced_times, _, differing = run_rounds(workload, args.seconds, tracer, first=checked)
        for index in differing:
            tally.mismatch(f"traced round {index} gave other outputs than round 1")
    for note in tally.notes[:40]:
        print(note, file=sys.stderr)

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        overhead = statistics.median(traced_times) - statistics.median(times)
        counters = {"jacobians.sparsemax_jvp.ops": getattr(workload, "jvp_ops", 0)}
        metrics = per_layer_metrics(tracer, len(traced_times), counters, overhead)
        tracer.write(stem.with_name(stem.name + "-spans.jsonl"))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(times),
        "round_s": times,
        "setup_s": setup_times,
        "failures": tally.notes,
        **({"traced_round_s": traced_times, "layers": layer_table(tracer, len(traced_times))} if args.trace else {}),
        "result": result,
    }
    stem.with_name(stem.name + "-report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
