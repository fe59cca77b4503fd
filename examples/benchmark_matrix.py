"""Cross-problem benchmark matrix on one shared process pool.

Trains a problems × samplers grid — by default every registered problem
under every registered sampler — with all cells sharded over a single
``ProcessPoolExecutor``, records each cell into one run store, and then
regenerates the paper-style artefacts *from the store alone*: per-problem
speedup tables and convergence-vs-time figures.

Usage::

    python examples/benchmark_matrix.py [--problems all|a,b] [--samplers a,b]
                                        [--scale smoke|repro] [--steps N]
                                        [--serial] [--store DIR]
"""

import argparse

from repro.experiments import (compare_table, matrix_table, render_curves,
                               run_matrix, stored_histories)
from repro.store import RunStore


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problems", default="all",
                        help="comma-separated registered problems or 'all'")
    parser.add_argument("--samplers", default=None,
                        help="comma-separated registered samplers "
                             "(default: all registered)")
    parser.add_argument("--scale", default="smoke",
                        choices=("smoke", "repro"))
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--serial", action="store_true",
                        help="disable the shared process pool")
    parser.add_argument("--store", default="matrix-runs")
    args = parser.parse_args()

    samplers = (None if args.samplers is None
                else [s.strip() for s in args.samplers.split(",")
                      if s.strip()])
    store = RunStore(args.store)
    matrix = run_matrix(args.problems, samplers,
                        backend="serial" if args.serial else "process",
                        scale=args.scale, steps=args.steps, verbose=True,
                        store=store)

    print()
    print(matrix_table(matrix.histories(), "Benchmark matrix"))
    print(f"\nmatrix total: {matrix.total_seconds:.1f}s "
          f"({matrix.backend} backend, {matrix.n_cells} cells); "
          f"recorded {len(matrix.run_ids())} runs in {store.root}")

    # everything below reads only the persisted records — rerunnable any
    # time later via `repro runs --store <dir> plot` / `... compare`
    grouped = stored_histories(store.open(run_id)
                               for run_id in matrix.run_ids())
    print()
    print(compare_table(grouped))
    for problem, histories in grouped.items():
        print()
        print(render_curves(histories, title=f"Convergence vs wall time "
                                             f"({problem}): loss"))


if __name__ == "__main__":
    main()
