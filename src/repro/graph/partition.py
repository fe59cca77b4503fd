"""Spatial grid partitioning for parallel S1/S2 (paper §3.3).

The paper decomposes the dataset into grids and runs PGM construction and
LRD decomposition in independent sub-processes.  :func:`grid_partition`
produces the per-cell index sets; :func:`parallel_lrd` runs the kNN + LRD
pipeline per cell (optionally in a process pool) and stitches the cluster
labels back together with globally unique ids.  :func:`assign_clusters`
bin-packs whole clusters onto data-parallel shards.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assign_clusters", "grid_partition", "parallel_lrd"]


def grid_partition(points, cells_per_dim):
    """Split points into a regular grid of cells.

    Returns a list of index arrays, one per non-empty cell.
    """
    points = np.asarray(points)
    if cells_per_dim < 1:
        raise ValueError("cells_per_dim must be >= 1")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    scaled = (points - lo) / span
    cell_ids = np.minimum((scaled * cells_per_dim).astype(int),
                          cells_per_dim - 1)
    flat = cell_ids[:, 0]
    for d in range(1, points.shape[1]):
        flat = flat * cells_per_dim + cell_ids[:, d]
    order = np.argsort(flat, kind="stable")
    sorted_ids = flat[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    return [chunk for chunk in np.split(order, boundaries)]


def _cell_lrd(args):
    """Worker: kNN graph + LRD on one cell (top-level for picklability)."""
    points, k, level, num_vectors, seed = args
    from .laplacian import knn_adjacency
    from .lrd import lrd_decompose
    if len(points) <= max(k, 2):
        return np.zeros(len(points), dtype=int), max(len(points) and 1, 0)
    adjacency = knn_adjacency(points, min(k, len(points) - 1))
    result = lrd_decompose(adjacency, level=level, num_vectors=num_vectors,
                           seed=seed)
    return result.labels, result.n_clusters


def parallel_lrd(points, k, level, cells_per_dim=2, num_vectors=16, seed=0,
                 pool=None):
    """Grid-partitioned LRD clustering of a point cloud.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates.
    k, level, num_vectors, seed:
        Forwarded to the per-cell pipeline.
    cells_per_dim:
        Grid resolution (1 disables partitioning).
    pool:
        Optional ``multiprocessing.Pool``-like object with a ``map`` method;
        when ``None`` the cells run sequentially (deterministic and
        dependency-free — the paper's speedup claim is about wall time, not
        labels).

    Returns
    -------
    ``(labels, n_clusters)`` with cluster ids unique across cells.
    """
    points = np.asarray(points)
    cells = grid_partition(points, cells_per_dim)
    jobs = [(points[idx], k, level, num_vectors, seed + i)
            for i, idx in enumerate(cells)]
    mapper = pool.map if pool is not None else map
    results = list(mapper(_cell_lrd, jobs))
    labels = np.zeros(len(points), dtype=int)
    offset = 0
    for idx, (cell_labels, count) in zip(cells, results):
        labels[idx] = cell_labels + offset
        offset += count
    return labels, offset


def assign_clusters(cluster_sizes, n_shards):
    """Greedy balanced assignment of whole clusters to shards.

    Clusters are processed largest-first (ties broken by cluster id) and
    each goes to the shard currently holding the fewest points (ties to the
    lowest shard id) — the classic LPT schedule, fully deterministic.
    Returns ``shard_of_cluster``, an int array over cluster ids.
    """
    sizes = np.asarray(cluster_sizes, dtype=int)
    n_shards = int(n_shards)
    if len(sizes) < n_shards:
        raise ValueError(
            f"{len(sizes)} clusters cannot cover {n_shards} shards without "
            f"an empty shard; lower the shard count (dp_shards) or the LRD "
            f"level so the decomposition yields more clusters")
    order = sorted(range(len(sizes)), key=lambda c: (-int(sizes[c]), c))
    load = [0] * n_shards
    shard_of_cluster = np.empty(len(sizes), dtype=int)
    for cluster in order:
        shard = min(range(n_shards), key=lambda s: (load[s], s))
        shard_of_cluster[cluster] = shard
        load[shard] += int(sizes[cluster])
    return shard_of_cluster
