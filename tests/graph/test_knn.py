"""Exact kNN search and edge-list construction."""

import numpy as np
import pytest

from repro.graph import knn_graph_edges, knn_search

RNG = np.random.default_rng(0)


# the PGM is built over 2 or 3 features, SPADE's output graph over 1 to 4
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_kdtree_matches_brute_force(dim):
    points = np.random.default_rng(dim).uniform(size=(200, dim))
    idx_tree, dist_tree = knn_search(points, 5)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    idx_brute = np.argsort(dist, axis=1)[:, :5]
    dist_brute = np.take_along_axis(dist, idx_brute, axis=1)
    assert np.allclose(np.sort(dist_tree, axis=1), np.sort(dist_brute, axis=1))
    # neighbour sets agree (order may differ on ties)
    for a, b in zip(idx_tree, idx_brute):
        assert set(a) == set(b)


def test_knn_excludes_self():
    points = RNG.uniform(size=(50, 2))
    indices, _ = knn_search(points, 4)
    for i, row in enumerate(indices):
        assert i not in row


def test_knn_invalid_k():
    points = RNG.uniform(size=(10, 2))
    with pytest.raises(ValueError):
        knn_search(points, 0)
    with pytest.raises(ValueError):
        knn_search(points, 10)


def test_edge_list_unique_and_ordered():
    points = RNG.uniform(size=(100, 2))
    indices, distances = knn_search(points, 6)
    edges, lengths = knn_graph_edges(indices, distances)
    assert np.all(edges[:, 0] < edges[:, 1])
    keys = edges[:, 0] * 100 + edges[:, 1]
    assert len(np.unique(keys)) == len(keys)
    assert len(lengths) == len(edges)


def test_edge_lengths_match_geometry():
    points = RNG.uniform(size=(60, 2))
    indices, distances = knn_search(points, 3)
    edges, lengths = knn_graph_edges(indices, distances)
    direct = np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1)
    assert np.allclose(lengths, direct)


def test_edge_count_bounds():
    points = RNG.uniform(size=(80, 2))
    indices, distances = knn_search(points, 4)
    edges, _ = knn_graph_edges(indices, distances)
    # between n*k/2 (all mutual) and n*k (no mutual)
    assert 80 * 4 / 2 <= len(edges) <= 80 * 4
