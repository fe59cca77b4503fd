"""Figure 4: absolute pressure-error fields at r_i = 1.0 per method.

The paper visualises |p_pred - p_ref| over the annular-ring domain; here we
regenerate the fields on the reference grid and report each method's mean
absolute error (SGM-S should be lowest among the small-batch methods).
"""

import numpy as np

from repro.experiments import pressure_error_fields


def test_figure4_pressure_fields(benchmark, ar_suite_results):
    config, suite = ar_suite_results

    fig4 = benchmark.pedantic(pressure_error_fields,
                              args=({m.label: m for m in suite}, config),
                              kwargs={"r_inner": 1.0},
                              rounds=1, iterations=1)

    print(f"\nFigure 4 (scale={config.scale}): mean |p_pred - p_ref| "
          f"at r_i=1.0")
    for label, value in sorted(fig4["mean_abs_error"].items(),
                               key=lambda kv: kv[1]):
        print(f"  {label:>12}: {value:.4f}")

    mask = fig4["mask"]
    for label, field in fig4["fields"].items():
        inside = field[mask]
        assert np.all(np.isfinite(inside)), f"{label} produced NaN errors"
        assert np.all(np.isnan(field[~mask])), "error leaked outside fluid"
