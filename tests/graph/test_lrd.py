"""LRD decomposition invariants (paper S2)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    LRDResult, adjacency_from_edges, cluster_sizes,
    exact_effective_resistance, grid_partition, knn_adjacency,
    lrd_decompose, parallel_lrd,
)
from repro.graph import lrd as lrd_module

RNG = np.random.default_rng(0)


def cloud_adjacency(n=200, k=6, seed=0):
    points = np.random.default_rng(seed).uniform(size=(n, 2))
    return points, knn_adjacency(points, k)


class _UnionFind:
    """Union-find with per-root cluster size and resistance-diameter: the
    contraction's reference implementation over numpy arrays."""

    def __init__(self, n):
        self.parent = np.arange(n)
        self.size = np.ones(n, dtype=np.int64)
        self.diameter = np.zeros(n)

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:       # path compression
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b, edge_resistance, budget):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        merged_diameter = (self.diameter[ra] + edge_resistance
                           + self.diameter[rb])
        if merged_diameter > budget:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.diameter[ra] = merged_diameter
        return True


def oracle_contract(n, edges, edge_resistance, level, budget=None,
                    min_clusters=2):
    """The greedy LRD contraction, one ``find`` call per node at the end."""
    if budget is None:
        budget = (float(edge_resistance.mean()) * (2.0 ** level)
                  if len(edge_resistance) else 0.0)
    order = np.argsort(edge_resistance, kind="stable")
    uf = _UnionFind(n)
    clusters = n
    target = max(int(np.ceil(n / 2.0 ** level)), min_clusters)
    for idx in order:
        if clusters <= target:
            break
        a, b = edges[idx]
        if uf.union(int(a), int(b), float(edge_resistance[idx]), budget):
            clusters -= 1
    roots = np.array([uf.find(i) for i in range(n)])
    unique_roots, labels = np.unique(roots, return_inverse=True)
    return LRDResult(labels=labels, n_clusters=len(unique_roots),
                     diameters=uf.diameter[unique_roots],
                     edge_resistance=edge_resistance, edges=edges,
                     budget=float(budget))


def assert_matches_oracle(adjacency, **kwargs):
    """``lrd_decompose`` equals the oracle contraction of the same ER
    estimates, bit for bit."""
    result = lrd_decompose(adjacency, **kwargs)
    oracle = oracle_contract(
        adjacency.shape[0], result.edges, result.edge_resistance,
        kwargs.get("level", 6), budget=kwargs.get("budget"),
        min_clusters=kwargs.get("min_clusters", 2))
    assert np.array_equal(result.labels, oracle.labels)
    assert np.array_equal(result.diameters, oracle.diameters)
    assert result.n_clusters == oracle.n_clusters
    assert result.budget == oracle.budget
    return result


class TestContractionOracle:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("level", [1, 3, 6])
    def test_knn_clouds(self, dim, level):
        points = np.random.default_rng(dim).uniform(size=(700, dim))
        assert_matches_oracle(knn_adjacency(points, 7), level=level,
                              seed=level)

    def test_explicit_resistances_with_exact_ties(self):
        _, adj = cloud_adjacency(n=400, k=6, seed=2)
        m = sp.triu(adj, k=1).nnz
        ties = np.random.default_rng(1).integers(1, 4, size=m) * 0.25
        assert_matches_oracle(adj, level=4, edge_resistance=ties)

    def test_finite_budget_stops_before_target(self):
        _, adj = cloud_adjacency(n=300)
        result = assert_matches_oracle(adj, level=5, budget=1e-3, seed=2)
        assert result.n_clusters > int(np.ceil(300 / 2 ** 5))

    def test_min_clusters_stop(self):
        _, adj = cloud_adjacency(n=128)
        result = assert_matches_oracle(adj, level=20, budget=np.inf,
                                       min_clusters=7)
        assert result.n_clusters == 7

    def test_disconnected_graph(self):
        _, left = cloud_adjacency(n=150, seed=4)
        _, right = cloud_adjacency(n=90, seed=5)
        adj = sp.block_diag([left, right], format="csr")
        result = assert_matches_oracle(adj, level=8, budget=np.inf,
                                       edge_resistance=np.ones(
                                           sp.triu(adj, k=1).nnz))
        assert not set(result.labels[:150]) & set(result.labels[150:])

    def test_empty_edge_set(self):
        assert_matches_oracle(sp.csr_matrix((6, 6)), level=2)

    def test_parallel_lrd(self, monkeypatch):
        points = np.random.default_rng(8).uniform(size=(600, 2))
        labels, count = parallel_lrd(points, k=5, level=3, cells_per_dim=2,
                                     seed=4)

        def oracle_decompose(adjacency, **kwargs):
            result = lrd_decompose(adjacency, **kwargs)
            return oracle_contract(adjacency.shape[0], result.edges,
                                   result.edge_resistance, kwargs["level"])

        # the per-cell worker looks ``lrd_decompose`` up on its module
        monkeypatch.setattr(lrd_module, "lrd_decompose", oracle_decompose)
        oracle_labels, oracle_count = parallel_lrd(
            points, k=5, level=3, cells_per_dim=2, seed=4)
        assert np.array_equal(labels, oracle_labels)
        assert count == oracle_count


class TestDecomposition:
    def test_labels_form_exact_partition(self):
        _, adj = cloud_adjacency()
        result = lrd_decompose(adj, level=4)
        assert result.labels.shape == (200,)
        assert result.labels.min() == 0
        assert result.labels.max() == result.n_clusters - 1
        assert cluster_sizes(result.labels).sum() == 200

    def test_level_controls_coarseness(self):
        _, adj = cloud_adjacency()
        counts = [lrd_decompose(adj, level=l, seed=1).n_clusters
                  for l in (1, 3, 5, 7)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]

    def test_target_cluster_count(self):
        _, adj = cloud_adjacency(n=256)
        result = lrd_decompose(adj, level=3, budget=np.inf)
        assert result.n_clusters == 256 // 8

    def test_diameter_bound_tracked(self):
        _, adj = cloud_adjacency()
        result = lrd_decompose(adj, level=5)
        assert np.all(result.diameters <= result.budget + 1e-12)

    def test_true_er_diameter_within_tracked_bound(self):
        # exact check on a small graph: the real resistance diameter of each
        # cluster never exceeds the spanning-tree upper bound we maintain
        points, adj = cloud_adjacency(n=60, k=4, seed=3)
        result = lrd_decompose(adj, level=3, num_vectors=96, seed=4)
        for c in range(result.n_clusters):
            members = np.flatnonzero(result.labels == c)
            if len(members) < 2:
                continue
            pairs = [(a, b) for i, a in enumerate(members)
                     for b in members[i + 1:]]
            er = exact_effective_resistance(adj, pairs)
            assert er.max() <= result.budget * 1.6 + 1e-9

    def test_min_clusters_respected(self):
        _, adj = cloud_adjacency(n=64)
        result = lrd_decompose(adj, level=20, budget=np.inf, min_clusters=5)
        assert result.n_clusters >= 5

    def test_no_edges_graph(self):
        adj = sp.csr_matrix((5, 5))
        result = lrd_decompose(adj, level=3)
        assert result.n_clusters == 5
        assert np.array_equal(result.labels, np.arange(5))

    def test_precomputed_edge_resistance_used(self):
        _, adj = cloud_adjacency(n=50, k=4)
        coo = sp.triu(adj, k=1).tocoo()
        er = np.ones(coo.nnz)
        result = lrd_decompose(adj, level=2, edge_resistance=er)
        assert np.array_equal(result.edge_resistance, er)

    def test_clusters_are_spatially_coherent(self):
        points, adj = cloud_adjacency(n=300, k=6, seed=5)
        result = lrd_decompose(adj, level=4, seed=5)
        intra = []
        for c in range(result.n_clusters):
            members = points[result.labels == c]
            if len(members) >= 2:
                intra.append(np.linalg.norm(
                    members - members.mean(axis=0), axis=1).mean())
        global_spread = np.linalg.norm(points - points.mean(axis=0),
                                       axis=1).mean()
        assert np.mean(intra) < 0.5 * global_spread

    def test_deterministic_under_seed(self):
        _, adj = cloud_adjacency()
        a = lrd_decompose(adj, level=4, seed=7)
        b = lrd_decompose(adj, level=4, seed=7)
        assert np.array_equal(a.labels, b.labels)


class TestGridPartition:
    def test_partition_covers_all_points(self):
        points = RNG.uniform(size=(500, 2))
        cells = grid_partition(points, 3)
        joined = np.concatenate(cells)
        assert len(joined) == 500
        assert len(np.unique(joined)) == 500

    def test_single_cell(self):
        points = RNG.uniform(size=(50, 2))
        cells = grid_partition(points, 1)
        assert len(cells) == 1 and len(cells[0]) == 50

    def test_cells_respect_spatial_bounds(self):
        points = RNG.uniform(size=(400, 2))
        cells = grid_partition(points, 2)
        for idx in cells:
            cell_points = points[idx]
            span = cell_points.max(axis=0) - cell_points.min(axis=0)
            assert np.all(span <= 0.5 + 1e-9)

    def test_invalid_cells_per_dim(self):
        import pytest
        with pytest.raises(ValueError):
            grid_partition(RNG.uniform(size=(10, 2)), 0)


class TestParallelLRD:
    def test_labels_unique_across_cells(self):
        points = RNG.uniform(size=(400, 2))
        labels, count = parallel_lrd(points, k=5, level=3, cells_per_dim=2)
        assert labels.shape == (400,)
        assert labels.max() == count - 1
        # each cell's labels are disjoint, so every point got assigned
        assert len(np.unique(labels)) == count

    def test_single_cell_matches_direct(self):
        points = np.random.default_rng(9).uniform(size=(150, 2))
        labels, count = parallel_lrd(points, k=5, level=3, cells_per_dim=1,
                                     seed=0)
        adj = knn_adjacency(points, 5)
        direct = lrd_decompose(adj, level=3, seed=0)
        assert count == direct.n_clusters
        # same partition up to relabelling
        mapping = {}
        for a, b in zip(labels, direct.labels):
            mapping.setdefault(a, b)
            assert mapping[a] == b
