"""Weighted graph construction and Laplacians for the PGM (paper S1).

Edge weights encode conditional dependence between nearby collocation points,
inversely proportional to distance (paper §3.2).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "adjacency_from_edges", "knn_adjacency", "laplacian", "degree_vector",
]


def adjacency_from_edges(n, edges, weights):
    """Symmetric CSR adjacency from an undirected edge list."""
    edges = np.asarray(edges)
    weights = np.asarray(weights, dtype=np.float64)
    if edges.shape[0] != weights.shape[0]:
        raise ValueError("edges and weights length mismatch")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.concatenate([weights, weights])
    adj = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    return adj


def knn_adjacency(points, k):
    """Build the kNN PGM adjacency of a point cloud.

    Edge weights are ``w = 1/(d + eps)``: dependence inversely proportional
    to distance (§3.2).

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates (the paper uses the low-dimensional spatial
        coordinates; output features can be appended by the caller).
    k:
        Neighbours per node.
    """
    from .knn import knn_graph_edges, knn_search
    indices, distances = knn_search(points, k)
    edges, lengths = knn_graph_edges(indices, distances)
    eps = max(float(lengths.mean()) * 1e-3, 1e-12)
    weights = 1.0 / (lengths + eps)
    return adjacency_from_edges(len(points), edges, weights)


def degree_vector(adjacency):
    """Weighted degree of each node."""
    return np.asarray(adjacency.sum(axis=1)).ravel()


def laplacian(adjacency):
    """Combinatorial Laplacian ``L = D - W`` (CSR)."""
    deg = degree_vector(adjacency)
    return sp.diags(deg) - adjacency
