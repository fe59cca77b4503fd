"""SPADE/ISR behaviour on maps with known stability structure."""

import numpy as np
import pytest

from repro.stability import spade_scores

RNG = np.random.default_rng(0)


def test_linear_scaling_gives_isr_close_to_scale():
    # Y = c X scales all distances by c; with inverse-distance weights
    # L_Y = L_X / c, so lambda_max(L_Y^+ L_X) = c exactly.
    x = RNG.uniform(size=(200, 2))
    c = 7.0
    result = spade_scores(x, c * x, k=8, rank=4)
    assert np.isclose(result.isr, c, rtol=0.05)


def test_identity_map_isr_near_one():
    x = RNG.uniform(size=(150, 2))
    result = spade_scores(x, x.copy(), k=8, rank=4)
    assert np.isclose(result.isr, 1.0, rtol=0.05)


def test_node_scores_peak_at_sharp_transition():
    # f(x) = tanh(20 (x0 - 0.5)) changes fastest near x0 = 0.5
    x = RNG.uniform(size=(600, 2))
    y = np.tanh(20.0 * (x[:, 0:1] - 0.5))
    result = spade_scores(x, y, k=10, rank=6)
    near = np.abs(x[:, 0] - 0.5) < 0.05
    far = np.abs(x[:, 0] - 0.5) > 0.3
    assert result.node_scores[near].mean() > 3.0 * result.node_scores[far].mean()


def test_edge_scores_match_eigen_formula():
    x = RNG.uniform(size=(120, 2))
    y = np.sin(3.0 * x)
    result = spade_scores(x, y, k=6, rank=5)
    # recompute one edge score from the returned eigenpairs is not possible
    # without the eigenvectors; instead verify shapes and non-negativity
    assert result.edge_scores.shape[0] == result.edges.shape[0]
    assert np.all(result.edge_scores >= 0.0)
    assert np.all(result.node_scores >= 0.0)


def test_eigenvalues_sorted_descending():
    x = RNG.uniform(size=(100, 2))
    y = np.tanh(x @ RNG.normal(size=(2, 3)))
    result = spade_scores(x, y, k=6, rank=5)
    assert np.all(np.diff(result.eigenvalues) <= 1e-9)
    assert np.isclose(result.isr, result.eigenvalues[0])


def test_unstable_direction_scores_higher_than_stable():
    # map stretches x1 strongly, x0 weakly: edges along x1 score higher
    x = RNG.uniform(size=(300, 2))
    y = np.stack([0.1 * x[:, 0], 10.0 * x[:, 1]], axis=1)
    result = spade_scores(x, y, k=8, rank=4)
    dx = np.abs(x[result.edges[:, 0]] - x[result.edges[:, 1]])
    along_x1 = dx[:, 1] > 2.0 * dx[:, 0]
    along_x0 = dx[:, 0] > 2.0 * dx[:, 1]
    assert (result.edge_scores[along_x1].mean() >
            5.0 * result.edge_scores[along_x0].mean())


def test_1d_outputs_accepted():
    x = RNG.uniform(size=(80, 2))
    y = x[:, 0] ** 2
    result = spade_scores(x, y, k=5, rank=3)
    assert result.node_scores.shape == (80,)


def test_mismatched_rows_rejected():
    with pytest.raises(ValueError):
        spade_scores(np.zeros((10, 2)), np.zeros((9, 1)), k=3)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        spade_scores(np.zeros((5, 2)), np.zeros((5, 1)), k=5)


def test_isr_upper_bounds_observed_dmd_for_linear_map():
    # Lemma 2: ISR >= max gamma; for Y = A X the max DMD over edges is the
    # largest singular-value stretch realised on the sampled pairs
    x = RNG.uniform(size=(250, 2))
    a = np.array([[3.0, 0.0], [0.0, 0.5]])
    y = x @ a.T
    result = spade_scores(x, y, k=8, rank=6)
    p, q = result.edges[:, 0], result.edges[:, 1]
    dx = np.linalg.norm(x[p] - x[q], axis=1)
    dy = np.linalg.norm(y[p] - y[q], axis=1)
    gamma_max = (dy / dx).max()
    assert result.isr >= 0.9 * gamma_max
