"""k-nearest-neighbour graph construction (paper step S1).

The search is an exact KD-tree query (scipy), so S1 builds the exact kNN
PGM that the paper's HNSW index [Malkov & Yashunin 2018] approximates.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["knn_search", "knn_graph_edges"]


def knn_search(points, k):
    """Find the ``k`` nearest neighbours of every point.

    Parameters
    ----------
    points:
        ``(n, d)`` array.
    k:
        Number of neighbours (excluding the point itself).

    Returns
    -------
    (indices, distances):
        Both ``(n, k)``; row ``i`` lists the neighbours of point ``i``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1 or k >= n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    tree = cKDTree(points)
    distances, indices = tree.query(points, k=k + 1)
    return indices[:, 1:], distances[:, 1:]


def knn_graph_edges(indices, distances):
    """Convert kNN query results to a unique undirected edge list.

    Returns
    -------
    (edges, lengths):
        ``edges`` is ``(m, 2)`` with ``edges[:, 0] < edges[:, 1]``;
        ``lengths`` the corresponding euclidean distances.
    """
    n, k = indices.shape
    src = np.repeat(np.arange(n), k)
    dst = indices.ravel()
    length = distances.ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keyed = lo.astype(np.int64) * n + hi
    order = np.argsort(keyed, kind="stable")
    keyed, lo, hi, length = keyed[order], lo[order], hi[order], length[order]
    keep = np.ones(len(keyed), dtype=bool)
    keep[1:] = keyed[1:] != keyed[:-1]
    return np.stack([lo[keep], hi[keep]], axis=1), length[keep]
