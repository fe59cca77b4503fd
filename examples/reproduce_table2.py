"""Reproduce Table 2, Figure 3, and Figure 4 (parameterized annular ring).

Trains the methods of the paper's Table 2 — uniform small/large batch, MIS,
SGM-PINN with the ISR stability term (SGM-S) — plus the plain SGM variant
shown only in Figure 3, on the parameterized annular-ring problem
(inner radius r_i ∈ [0.75, 1.1], validated at r_i ∈ {1.0, 0.875, 0.75}).
The Figure-3 series is written as long-format CSV
(``problem,label,wall_time,err_v``).

Usage::

    python examples/reproduce_table2.py [--scale smoke|repro] [--out results]
                                        [--parallel]
"""

import argparse
from pathlib import Path

import numpy as np

from repro.experiments import (
    annular_ring_config, ar_methods, format_table, pressure_error_fields,
    render_curves, run_suite, table2_rows, write_curves_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="repro",
                        choices=("smoke", "repro"))
    parser.add_argument("--out", default="results")
    parser.add_argument("--skip-plain-sgm", action="store_true",
                        help="skip the Figure-3-only SGM (no ISR) run")
    parser.add_argument("--parallel", action="store_true",
                        help="shard the method sweep over a process pool")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = annular_ring_config(args.scale)

    methods = ar_methods(config, include_plain_sgm=not args.skip_plain_sgm)
    suite = run_suite("annular_ring", methods, config=config,
                      backend="process" if args.parallel else "serial",
                      verbose=True)
    histories = suite.histories()
    for label, history in histories.items():
        history.to_csv(out / f"ar_{label}.csv")

    # Table 2 uses the SGM-S column (plain SGM is a Figure-3 curve only)
    table_histories = {label: h for label, h in histories.items()
                       if not (label.startswith("SGM") and
                               "-S" not in label)}
    table = format_table(
        f"Table 2 (scale={args.scale}): parameterized annular ring, "
        f"errors averaged over r_i", *table2_rows(table_histories))
    print()
    print(table)
    (out / "table2.txt").write_text(table + "\n")

    write_curves_csv({"annular_ring": histories},
                     out / "figure3_v_error_vs_time.csv", var="v")
    chart = render_curves(histories, var="v",
                          title="Figure 3: AR v-error vs wall time (s)")
    print()
    print(chart)
    (out / "figure3.txt").write_text(chart + "\n")

    fig4 = pressure_error_fields({m.label: m for m in suite}, config,
                                 r_inner=1.0)
    np.savez_compressed(out / "figure4_pressure_error_fields.npz",
                        xs=fig4["xs"], ys=fig4["ys"], mask=fig4["mask"],
                        **{f"err_{k}": v for k, v in fig4["fields"].items()})
    lines = ["Figure 4: mean |p_pred - p_ref| at r_i=1.0 (lower is better)"]
    for label, value in sorted(fig4["mean_abs_error"].items(),
                               key=lambda kv: kv[1]):
        lines.append(f"  {label:>12}: {value:.4f}")
    summary = "\n".join(lines)
    print()
    print(summary)
    (out / "figure4.txt").write_text(summary + "\n")


if __name__ == "__main__":
    main()
