"""Figure 2: LDC v-error vs wall time for all four sampling methods."""

from repro.experiments import history_curves, render_curves


def test_figure2_curves(benchmark, ldc_suite_results):
    config, suite = ldc_suite_results
    histories = suite.histories()

    curves = benchmark(history_curves, histories, "v")

    chart = render_curves(histories, var="v",
                          title=f"Figure 2 (scale={config.scale}): LDC "
                                f"v-error vs wall time [s]")
    print()
    print(chart)

    # every method must contribute a non-empty, finite series
    for label, (times, errors) in curves.items():
        assert len(times) > 0, f"{label} recorded no validation errors"
        assert all(e >= 0 for e in errors)
