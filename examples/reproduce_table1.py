"""Reproduce Table 1 and Figure 2 (LDC with zero-equation turbulence).

Trains the four methods of the paper's Table 1 — uniform small-batch,
uniform large-batch, Modulus-style importance sampling (MIS), and SGM-PINN —
then prints the Min-error / time-to-threshold table and writes the Figure-2
error-vs-wall-time series (long-format CSV:
``problem,label,wall_time,err_v``).

Usage::

    python examples/reproduce_table1.py [--scale smoke|repro] [--out results]
                                        [--parallel]
"""

import argparse
from pathlib import Path

from repro.experiments import (
    format_table, ldc_config, ldc_methods, render_curves, run_suite,
    table1_rows, write_curves_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="repro",
                        choices=("smoke", "repro"),
                        help="experiment scale preset (default: repro)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--parallel", action="store_true",
                        help="shard the four-method sweep over a process "
                             "pool (identical trajectories, lower wall "
                             "clock on multi-core machines)")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = ldc_config(args.scale)

    suite = run_suite("ldc", ldc_methods(config), config=config,
                      backend="process" if args.parallel else "serial",
                      verbose=True)
    histories = suite.histories()

    for label, history in histories.items():
        history.to_csv(out / f"ldc_{label}.csv")

    table = format_table(
        f"Table 1 (scale={args.scale}): LDC_zeroEq min validation errors "
        f"and time-to-threshold [s]", *table1_rows(histories))
    print()
    print(table)
    (out / "table1.txt").write_text(table + "\n")

    write_curves_csv({"ldc": histories}, out / "figure2_v_error_vs_time.csv",
                     var="v")
    chart = render_curves(histories, var="v",
                          title="Figure 2: LDC v-error vs wall time (s)")
    print()
    print(chart)
    (out / "figure2.txt").write_text(chart + "\n")

    print("\nProbe overhead (forward passes for importance refreshes):")
    for method in suite:
        print(f"  {method.label:>12}: {method.probe_points}")


if __name__ == "__main__":
    main()
