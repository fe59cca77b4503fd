"""Weighted graph construction and Laplacians for the PGM (paper S1).

Edge weights encode conditional dependence between nearby collocation points,
inversely proportional to distance (paper §3.2).  :func:`spd_factor` is the
one sparse factorisation the sampler uses, for the grounded Laplacian of the
ER sketch (S2) and for SPADE's ``L_Y + eps I`` (S3).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "adjacency_from_edges", "knn_adjacency", "laplacian", "degree_vector",
    "spd_factor",
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
        coordinates, plus any geometry parameters).
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


def spd_factor(matrix):
    """SuperLU factor of a symmetric positive definite matrix.

    Symmetric mode: one minimum-degree ordering of ``A^T + A`` for rows
    and columns, and diagonal pivots.  On a kNN Laplacian this takes about
    half the time and fill of SuperLU's default COLAMD ordering.  It does
    not detect singularity (a singular ``matrix`` gives a near-zero pivot,
    not an error), so callers pass a nonsingular one.  ``solve`` takes one
    right-hand side or an ``(n, k)`` block.
    """
    return spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))
