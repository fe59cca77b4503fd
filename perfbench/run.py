#!/usr/bin/env python3
"""Repository benchmark: set-up, steps/s and time-to-target on four
training workloads, with a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload burgers_sgm_replay --seed 1 --trace 0

Each run warms up once (untimed), then repeats complete training runs
("reps") of the workload for ``--seconds`` seconds (default: the
``run_seconds`` of BENCHMARK.json).  ``setup_s`` and ``final_err`` are
medians over reps; ``steps_per_s`` and ``time_to_target_s`` time each loop
window at its fastest across the reps (``workloads.fastest_windows``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced reps.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
table precedes it.  Reference CFD solutions, scratch stores and dp exchange
directories live under ``.perfbench_cache/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
#: the metric catalogue (names, units, order) is the one BENCHMARK.json
#: declares, so the output cannot drift from it
SPEC = ROOT / "BENCHMARK.json"
#: set-up is sampled at least this often, and set-up-only passes run for at
#: least this long, per run (they top up workloads with few, long reps)
SETUP_SAMPLES = 5
SETUP_SECONDS = 1.0


def pin_environment():
    """One BLAS/OpenMP thread per process: the dp workload's two ranks then
    use exactly the two cores of the reference machine, and the small
    matmuls of these nets gain nothing from threading."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(CACHE / "references")
    scratch = CACHE / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    return scratch


# ----------------------------------------------------------------------
# Reference solutions: computed once per checkout, outside timed runs
# ----------------------------------------------------------------------
def _marker(workload):
    return CACHE / "references" / f"{workload.problem}.json"


def warm_references(workload):
    """Solve (or load) the problem's reference fields; record the time."""
    import numpy as np
    from repro.api import problems
    config = workload.config()
    start = time.perf_counter()
    prob = problems.build_problem(workload.problem, config, 100,
                                  np.random.default_rng(0))
    prob.make_validators(np.random.default_rng(config.seed))
    seconds = time.perf_counter() - start
    marker = _marker(workload)
    marker.parent.mkdir(parents=True, exist_ok=True)
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(json.dumps({"seconds": seconds}) + "\n")
    os.replace(tmp, marker)
    return seconds


def ensure_references(workload):
    """Cold solve time of the workload's reference fields (ldc and the
    annulus solve CFD references; the others build exact solutions).

    The solve runs in a child process so its memory never counts towards
    this process's peak RSS."""
    marker = _marker(workload)
    if not marker.exists():
        subprocess.run([sys.executable, str(Path(__file__)), "--workload",
                        workload.name, "--references"],
                       check=True, timeout=170, stdout=subprocess.DEVNULL)
    return json.loads(marker.read_text())["seconds"]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(workload, seed, seconds, trace, traced, scratch):
    from layers import peak_rss_mb
    from workloads import (WARMUP_INTERIOR, WARMUP_STEPS, loop_figures,
                           rep_layers, run_rep)

    def rep_seed(index):
        return int(seed) * 1000 + index

    run_rep(workload, rep_seed(999), trace, scratch, steps=WARMUP_STEPS,
            n_interior=WARMUP_INTERIOR)

    reps, durations = [], []
    attempted = failed = 0
    deadline = trace.clock() + seconds
    while True:
        began = trace.clock()
        attempted += 1
        try:
            figures, problems = run_rep(workload, rep_seed(attempted - 1),
                                        trace, scratch)
        except Exception:   # a failed rep is counted, the run goes on
            traceback.print_exc()
            figures, problems = None, ["raised"]
        if problems:
            failed += 1
            print(f"rep {attempted - 1} failed: {problems}", file=sys.stderr)
        if figures is not None:
            reps.append(figures)
            print(f"rep {attempted - 1}: " + " ".join(
                f"{key}={figures[key]:.6g}" for key in
                ("setup_s", "steps_per_s", "time_to_target_s", "final_err")
                if key in figures), file=sys.stderr)
        durations.append(trace.clock() - began)
        if attempted == workload.scored_reps:
            # peak memory after a fixed rep count: the allocator's
            # high-water mark creeps up with every extra rep a fast host fits
            peak_rss = max([peak_rss_mb()] + [r["rss_mb"] for r in reps])
        # stop once the scored reps are in and the next rep would end more
        # than half a rep past the deadline
        if (attempted >= workload.scored_reps and trace.clock()
                + statistics.median(durations) / 2 >= deadline):
            break

    setups = [r["setup_s"] for r in reps]
    topped_up = trace.clock() + SETUP_SECONDS
    while len(setups) < SETUP_SAMPLES or trace.clock() < topped_up:
        figures, _ = run_rep(workload, rep_seed(attempted + len(setups)),
                             trace, scratch, steps=0)
        setups.append(figures["setup_s"])

    if not reps:
        raise RuntimeError(f"all {attempted} reps raised")
    steps_per_s, time_to_target_s = loop_figures(reps, workload.steps)
    scored = statistics.median(r["final_err"]
                               for r in reps[:workload.scored_reps])
    low = workload.reference_err * (1 - workload.err_tolerance)
    high = workload.reference_err * (1 + workload.err_tolerance)
    if not low <= scored <= high:
        print(f"final_err median {scored} outside [{low:.4f}, {high:.4f}]",
              file=sys.stderr)
        failed = attempted

    if traced:
        rows = [rep_layers(r, workload.compile) for r in reps]
        metrics = {name: statistics.median(row[name] for row in rows)
                   for name in rows[0]}
        metrics["trace.steps_per_s"] = steps_per_s
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "steps_per_s": steps_per_s,
            "time_to_target_s": time_to_target_s,
            "final_err": scored,
            "peak_rss_mb": peak_rss,
        }
    return metrics, attempted, failed


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", action="store_true",
                        help="only solve and cache the reference fields")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = pin_environment()
    from layers import Instrumentation, Trace
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.references:
        warm_references(workload)
        return 0
    reference_s = ensure_references(workload)

    trace = Trace()
    with Instrumentation(trace, layers=bool(args.trace)):
        metrics, attempted, failed = measure(
            workload, args.seed, args.seconds, trace, bool(args.trace),
            scratch)
    if args.trace:
        metrics["solvers.reference_s"] = reference_s

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"the ones {SPEC.name} declares")
    correct = failed == 0
    report = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        if not math.isfinite(value):
            correct = False
            value = 0.0
        report[name] = {"value": value, "unit": unit}
        print(f"{args.workload:24s} {name:30s} {value:14.6g} {unit}")
    print(f"{args.workload:24s} {'failed_frac':30s} "
          f"{failed / attempted:14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
