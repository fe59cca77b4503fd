"""Effective resistance: exact laws, estimator accuracy, metric properties."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.api import list_problems, problem_registry
from repro.api.problems import build_problem
from repro.graph import (
    adjacency_from_edges, approx_edge_resistance, exact_effective_resistance,
    knn_adjacency, laplacian, lrd_decompose, resistance_embedding,
)

RNG = np.random.default_rng(0)


def colamd_edge_resistance(adjacency, num_vectors, seed):
    """Oracle: the sketch with SuperLU's default COLAMD factor, node 0
    grounded and one solve per vector (connected graphs only)."""
    rng = np.random.default_rng(seed)
    n = adjacency.shape[0]
    coo = sp.triu(adjacency, k=1).tocoo()
    factor = spla.splu(laplacian(adjacency).tocsc()[1:, 1:].tocsc())
    sqrt_w = np.sqrt(coo.data)
    z = np.zeros((num_vectors, n))
    for t in range(num_vectors):
        signs = rng.choice([-1.0, 1.0], size=len(coo.data))
        contrib = signs / np.sqrt(num_vectors) * sqrt_w
        y = np.zeros(n)
        np.add.at(y, coo.row, contrib)
        np.add.at(y, coo.col, -contrib)
        z[t, 1:] = factor.solve(y[1:])
    diff = z[:, coo.row] - z[:, coo.col]
    return np.sum(diff * diff, axis=0)


def path_graph(n, weights=None):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    if weights is None:
        weights = np.ones(n - 1)
    return adjacency_from_edges(n, edges, weights)


def complete_graph(n):
    edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    return adjacency_from_edges(n, edges, np.ones(len(edges)))


class TestExact:
    def test_single_edge(self):
        adj = adjacency_from_edges(2, np.array([[0, 1]]), np.array([2.0]))
        er = exact_effective_resistance(adj, [[0, 1]])
        assert np.isclose(er[0], 0.5)  # R = 1/w

    def test_series_law_on_path(self):
        adj = path_graph(5)
        er = exact_effective_resistance(adj, [[0, 4]])
        assert np.isclose(er[0], 4.0)

    def test_weighted_series(self):
        adj = path_graph(4, weights=np.array([1.0, 2.0, 4.0]))
        er = exact_effective_resistance(adj, [[0, 3]])
        assert np.isclose(er[0], 1.0 + 0.5 + 0.25)

    def test_parallel_law(self):
        # two parallel unit edges = one edge of weight 2
        adj = adjacency_from_edges(2, np.array([[0, 1], [0, 1]]),
                                   np.array([1.0, 1.0]))
        er = exact_effective_resistance(adj, [[0, 1]])
        assert np.isclose(er[0], 0.5)

    def test_complete_graph_value(self):
        n = 7
        er = exact_effective_resistance(complete_graph(n), [[0, 1]])
        assert np.isclose(er[0], 2.0 / n)

    def test_symmetry(self):
        adj = knn_adjacency(RNG.uniform(size=(40, 2)), 4)
        pairs = np.array([[0, 5], [5, 0], [3, 17], [17, 3]])
        er = exact_effective_resistance(adj, pairs)
        assert np.isclose(er[0], er[1])
        assert np.isclose(er[2], er[3])

    def test_triangle_inequality(self):
        adj = knn_adjacency(RNG.uniform(size=(30, 2)), 4)
        nodes = RNG.choice(30, size=(20, 3))
        for a, b, c in nodes:
            r = exact_effective_resistance(adj, [[a, b], [b, c], [a, c]])
            assert r[2] <= r[0] + r[1] + 1e-9

    def test_identical_nodes_zero(self):
        adj = path_graph(4)
        er = exact_effective_resistance(adj, [[2, 2]])
        assert np.isclose(er[0], 0.0)


class TestApprox:
    def test_jl_sketch_close_to_exact(self):
        points = RNG.uniform(size=(120, 2))
        adj = knn_adjacency(points, 6)
        import scipy.sparse as sp
        coo = sp.triu(adj, k=1).tocoo()
        pairs = np.stack([coo.row, coo.col], axis=1)
        exact = exact_effective_resistance(adj, pairs)
        approx = approx_edge_resistance(adj, pairs, num_vectors=128, seed=1)
        rel = np.abs(approx - exact) / exact
        assert np.median(rel) < 0.15
        assert np.mean(rel) < 0.25

    def test_jl_sketch_preserves_ordering(self):
        # ER-based contraction only needs the *ordering* of edge resistances
        adj = path_graph(30, weights=np.linspace(1.0, 5.0, 29))
        pairs = np.stack([np.arange(29), np.arange(1, 30)], axis=1)
        exact = exact_effective_resistance(adj, pairs)
        approx = approx_edge_resistance(adj, pairs, num_vectors=96, seed=2)
        corr = np.corrcoef(np.argsort(np.argsort(exact)),
                           np.argsort(np.argsort(approx)))[0, 1]
        assert corr > 0.95

    def test_embedding_shape(self):
        adj = knn_adjacency(RNG.uniform(size=(50, 2)), 4)
        z = resistance_embedding(adj, num_vectors=8, seed=0)
        assert z.shape == (8, 50)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_colamd_oracle(self, seed):
        # the symmetric-mode factor and the block solve change only the
        # rounding of the sketch, not its random vectors
        rng = np.random.default_rng(seed)
        adj = knn_adjacency(rng.uniform(size=(400, 3)), 6)
        got = approx_edge_resistance(adj, num_vectors=16, seed=seed)
        np.testing.assert_allclose(
            got, colamd_edge_resistance(adj, 16, seed), rtol=1e-9)

    def test_disconnected_graph_grounds_every_component(self):
        # two far-apart clouds make a two-component kNN graph; each
        # component is grounded at its lowest node (a zero column), so
        # neither block of the grounded Laplacian is singular
        rng = np.random.default_rng(0)
        points = np.concatenate([rng.uniform(size=(150, 2)),
                                 rng.uniform(size=(150, 2)) + [5.0, 0.0]])
        adj = knn_adjacency(points, 5)
        coo = sp.triu(adj, k=1).tocoo()
        pairs = np.stack([coo.row, coo.col], axis=1)
        assert np.all((pairs[:, 0] < 150) == (pairs[:, 1] < 150))
        z = resistance_embedding(adj, num_vectors=400, seed=0)
        assert not z[:, 0].any() and not z[:, 150].any()
        exact = exact_effective_resistance(adj, pairs)
        diff = z[:, pairs[:, 0]] - z[:, pairs[:, 1]]
        rel = np.abs(np.sum(diff * diff, axis=0) - exact) / exact
        first = pairs[:, 0] < 150
        for part in (rel[first], rel[~first]):
            assert np.median(part) < 0.08
            assert part.max() < 0.5

    def test_cg_solver_matches_splu(self):
        adj = knn_adjacency(RNG.uniform(size=(60, 2)), 5)
        a = approx_edge_resistance(adj, num_vectors=16, seed=3, solver="splu")
        b = approx_edge_resistance(adj, num_vectors=16, seed=3, solver="cg")
        assert np.allclose(a, b, rtol=1e-4)

    def test_bad_solver_rejected(self):
        adj = path_graph(5)
        with pytest.raises(ValueError):
            resistance_embedding(adj, solver="nope")

    def test_bad_pairs_rejected(self):
        adj = path_graph(5)
        with pytest.raises(ValueError):
            exact_effective_resistance(adj, np.zeros((3, 3)))


@pytest.mark.parametrize("name", list_problems())
def test_lrd_labels_match_the_colamd_oracle_on_smoke_clouds(name):
    config = problem_registry.get(name).config_factory("smoke")
    cloud = build_problem(name, config, None,
                          np.random.default_rng(0)).interior_cloud
    adj = knn_adjacency(cloud.features(), config.knn_k)
    for seed in (0, 1):
        oracle = colamd_edge_resistance(adj, 16, seed)
        want = lrd_decompose(adj, level=config.lrd_level,
                             edge_resistance=oracle).labels
        got = lrd_decompose(adj, level=config.lrd_level, num_vectors=16,
                            seed=seed).labels
        assert np.array_equal(got, want)
