"""Table 1: LDC_zeroEq — minimum validation errors and time-to-threshold.

Times the full four-method training sweep (U_small, U_large, MIS, SGM) and
prints the reproduced table.  The paper's claims to check at any scale:

* SGM achieves the best Min(u)/Min(v)/Min(nu) among the small-batch methods;
* SGM reaches the baseline's (U_large's) best error fastest.
"""

from repro.experiments import (
    format_table, ldc_config, ldc_methods, run_suite, table1_rows,
)


def test_table1_ldc(benchmark, ldc_suite_results):
    config, suite = ldc_suite_results

    def regenerate():
        # the session fixture pays for training; the benchmark reports the
        # end-to-end sweep cost at smoke scale (rounds=1 keeps it bounded)
        smoke = ldc_config("smoke")
        return run_suite("ldc", ldc_methods(smoke), config=smoke,
                         backend="serial").histories()

    benchmark.pedantic(regenerate, rounds=1, iterations=1)

    histories = suite.histories()
    print()
    print(format_table(
        f"Table 1 (scale={config.scale}): LDC_zeroEq min errors and "
        f"time-to-threshold [s]", *table1_rows(histories)))
    print("\nProbe overhead (extra forward passes):")
    for method in suite:
        print(f"  {method.label:>12}: {method.probe_points}")

    for label, history in histories.items():
        assert history.min_error("u") < 1.5, f"{label} diverged"
