"""Figure 3: annular-ring v-error vs wall time, including plain SGM.

The qualitative shape to reproduce: plain SGM (no ISR) trails the uniform
baseline on the parameterized problem, while SGM-S recovers it (§4.2).
"""

from repro.experiments import history_curves, render_curves


def test_figure3_curves(benchmark, ar_suite_results):
    config, suite = ar_suite_results
    histories = suite.histories()

    curves = benchmark(history_curves, histories, "v")

    chart = render_curves(histories, var="v",
                          title=f"Figure 3 (scale={config.scale}): AR "
                                f"v-error vs wall time [s] (averaged over "
                                f"r_i)")
    print()
    print(chart)

    labels = list(curves)
    assert any("-S" in label for label in labels), "SGM-S curve missing"
    assert any(label.startswith("SGM") and "-S" not in label
               for label in labels), "plain SGM curve missing"
    for label, (times, errors) in curves.items():
        assert len(times) > 0, f"{label} has no error series"
