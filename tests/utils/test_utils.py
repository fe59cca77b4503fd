"""Interpolation, clocks, and ASCII plotting."""

import time

import numpy as np

from repro.utils import TrainingClock, ascii_plot, bilinear_interpolate


class TestBilinear:
    def test_exact_on_linear_function(self):
        xs = np.linspace(0, 2, 9)
        ys = np.linspace(-1, 1, 7)
        gx, gy = np.meshgrid(xs, ys)
        field = 3.0 * gx - 2.0 * gy + 1.0
        rng = np.random.default_rng(0)
        pts = np.stack([rng.uniform(0, 2, 50), rng.uniform(-1, 1, 50)], axis=1)
        vals = bilinear_interpolate(xs, ys, field, pts)
        expected = 3.0 * pts[:, 0] - 2.0 * pts[:, 1] + 1.0
        assert np.allclose(vals, expected)

    def test_grid_nodes_exact(self):
        xs = np.linspace(0, 1, 5)
        field = np.arange(25.0).reshape(5, 5)
        pts = np.array([[xs[2], xs[3]]])
        assert np.isclose(bilinear_interpolate(xs, xs, field, pts)[0],
                          field[3, 2])

    def test_outside_points_filled(self):
        xs = np.linspace(0, 1, 5)
        field = np.zeros((5, 5))
        vals = bilinear_interpolate(xs, xs, field, np.array([[2.0, 0.5]]),
                                    fill_value=-7.0)
        assert vals[0] == -7.0

    def test_all_outside(self):
        xs = np.linspace(0, 1, 5)
        vals = bilinear_interpolate(xs, xs, np.zeros((5, 5)),
                                    np.array([[5.0, 5.0], [-1.0, 0.0]]))
        assert np.all(np.isnan(vals))


class TestClocks:
    def test_elapsed_never_negative(self):
        clock = TrainingClock()
        first = clock.elapsed()
        time.sleep(0.01)
        second = clock.elapsed()
        assert 0.0 <= first <= second
        assert second - first >= 0.009

    def test_offset_pre_ages_raw_clock(self):
        clock = TrainingClock(offset=5.0)
        assert clock.offset == 5.0
        assert clock.elapsed() >= 5.0


class TestAsciiPlot:
    def test_renders_series_and_legend(self):
        xs = np.linspace(0, 10, 50)
        chart = ascii_plot([(xs, np.exp(-xs), "fast"),
                            (xs, np.exp(-0.3 * xs), "slow")],
                           logy=True, title="decay")
        assert "decay" in chart
        assert "*=fast" in chart and "+=slow" in chart
        assert "|" in chart

    def test_handles_empty(self):
        chart = ascii_plot([(np.array([]), np.array([]), "none")],
                           title="empty")
        assert "(no data)" in chart

    def test_nonpositive_dropped_in_logy(self):
        xs = np.arange(5.0)
        ys = np.array([1.0, 0.0, -1.0, 2.0, 3.0])
        chart = ascii_plot([(xs, ys, "s")], logy=True)
        assert "range" in chart
