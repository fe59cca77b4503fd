"""Registry-driven method sweep on any problem, serial or sharded.

Demonstrates the two suite entry points:

* the fluent Session form —
  ``repro.problem("burgers").suite(["uniform", "sgm"])``;
* the functional form — ``run_suite(problem, methods, backend=...)`` —
  which also accepts explicit :class:`~repro.api.MethodSpec` columns.

Usage::

    python examples/suite_sweep.py [--problem burgers] [--samplers uniform,sgm]
                                   [--scale smoke|repro] [--parallel]
"""

import argparse

import repro
from repro.experiments import format_table, sweep_rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", default="burgers",
                        help="a registered problem (see `repro problems`)")
    parser.add_argument("--samplers", default="uniform,mis,sgm",
                        help="comma-separated registered samplers")
    parser.add_argument("--scale", default="smoke",
                        choices=("smoke", "repro"))
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--parallel", action="store_true",
                        help="shard methods over a process pool")
    args = parser.parse_args()

    samplers = [s.strip() for s in args.samplers.split(",") if s.strip()]
    suite = (repro.problem(args.problem, scale=args.scale)
             .suite(samplers,
                    backend="process" if args.parallel else "serial",
                    steps=args.steps, verbose=True))

    print()
    print(format_table(f"{args.problem} sweep: min errors and "
                       f"time-to-threshold [s]",
                       *sweep_rows(suite.histories())))
    print(f"\nsweep total: {suite.total_seconds:.1f}s "
          f"({suite.backend} backend, {len(suite)} methods)")


if __name__ == "__main__":
    main()
