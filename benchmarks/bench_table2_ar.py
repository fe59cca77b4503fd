"""Table 2: parameterized annular ring — min errors, p at Min(v), times.

The paper's claims to check: SGM-S (with the ISR stability term) matches or
beats uniform sampling on u/v and improves p, while plain SGM *degrades*
parameterized training (visible in the Figure-3 curves).
"""

from repro.experiments import format_table, table2_rows


def test_table2_annular_ring(benchmark, ar_suite_results):
    config, suite = ar_suite_results
    histories = suite.histories()

    table_histories = {label: h for label, h in histories.items()
                       if not (label.startswith("SGM") and "-S" not in label)}

    def build_rows():
        return table2_rows(table_histories)

    columns, rows = benchmark(build_rows)
    print()
    print(format_table(
        f"Table 2 (scale={config.scale}): annular ring, errors averaged "
        f"over r_i = {config.validation_radii}", columns, rows))

    for label, history in table_histories.items():
        assert history.min_error("u") < 1.5, f"{label} diverged"
        assert history.min_error("v") < 1.5, f"{label} diverged"
