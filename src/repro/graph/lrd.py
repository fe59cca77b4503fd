"""Low-resistance-diameter (LRD) decomposition (paper step S2).

Partitions a PGM into node clusters whose *effective-resistance diameter* is
bounded, following the scheme of Alev et al. (ITCS 2018) as engineered in
HyperEF (Aghdaei & Feng, ICCAD 2022): estimate edge effective resistances
with a scalable sketch, then contract low-resistance edges level by level,
never letting a cluster's internal resistance diameter exceed the budget.

The diameter bookkeeping uses the standard spanning-tree upper bound: when
clusters ``A`` and ``B`` merge across an edge of resistance ``r``, the merged
diameter is at most ``diam(A) + r + diam(B)`` (resistance distances satisfy
the triangle inequality).  Clusters therefore provably satisfy the budget.

``level`` mirrors the paper's ``L`` hyper-parameter: each level halves the
target cluster count, so higher levels give coarser decompositions
(``n_clusters ≈ n / 2^level``) unless the resistance budget stops the
contraction first.

The contraction is one greedy pass over the edges in ascending resistance
order (a stable sort, so ties keep edge order).  It is a union-find with
path compression over plain Python lists (``parent``, ``size``,
``diameter``), converted from numpy once, because per-element numpy
indexing costs more than the merge itself.  The final root of every node
comes from vectorised pointer jumping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .resistance import approx_edge_resistance

__all__ = ["LRDResult", "lrd_decompose", "cluster_sizes"]


@dataclass
class LRDResult:
    """Outcome of an LRD decomposition.

    Attributes
    ----------
    labels:
        ``(n,)`` cluster id per node, compacted to ``0..n_clusters-1``.
    n_clusters:
        Number of clusters.
    diameters:
        Upper bound on the internal resistance diameter of each cluster.
    edge_resistance:
        The per-edge ER estimates used (aligned with ``edges``).
    edges:
        ``(m, 2)`` edge list the decomposition saw.
    budget:
        The resistance-diameter budget actually applied.
    """

    labels: np.ndarray
    n_clusters: int
    diameters: np.ndarray
    edge_resistance: np.ndarray
    edges: np.ndarray
    budget: float


def lrd_decompose(adjacency, level=6, budget=None, num_vectors=16, seed=0,
                  min_clusters=2, edge_resistance=None):
    """Decompose a graph into low-resistance-diameter clusters.

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency of the PGM.
    level:
        Coarsening level ``L``; the target cluster count is ``n / 2^L``.
    budget:
        Resistance-diameter budget per cluster.  Default: scaled from the
        mean edge resistance so that a ``level``-deep merge chain fits
        (``mean_er * 2^level``), mirroring HyperEF's per-level growth.
    num_vectors:
        Sketch depth for the ER estimator.
    min_clusters:
        Never contract below this many clusters.
    edge_resistance:
        Optional pre-computed per-edge ER (aligned with the upper-triangle
        COO ordering), e.g. to share one sketch across ablation runs.

    Returns
    -------
    LRDResult
    """
    n = adjacency.shape[0]
    coo = sp.triu(adjacency, k=1).tocoo()
    edges = np.stack([coo.row, coo.col], axis=1)
    if len(edges) == 0:
        return LRDResult(labels=np.arange(n), n_clusters=n,
                         diameters=np.zeros(n), edge_resistance=np.zeros(0),
                         edges=edges, budget=0.0)
    if edge_resistance is None:
        edge_resistance = approx_edge_resistance(
            adjacency, edges, num_vectors=num_vectors, seed=seed)
    edge_resistance = np.asarray(edge_resistance, dtype=np.float64)
    if budget is None:
        budget = float(edge_resistance.mean()) * (2.0 ** level)

    order = np.argsort(edge_resistance, kind="stable")
    heads = edges[order, 0].tolist()
    tails = edges[order, 1].tolist()
    resistances = edge_resistance[order].tolist()
    parent = list(range(n))
    size = [1] * n
    diameter = [0.0] * n
    clusters = n
    target = max(int(np.ceil(n / 2.0 ** level)), min_clusters)
    for a, b, r in zip(heads, tails, resistances):
        if clusters <= target:
            break
        ra = a
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[a] != ra:                  # path compression
            parent[a], a = ra, parent[a]
        rb = b
        while parent[rb] != rb:
            rb = parent[rb]
        while parent[b] != rb:
            parent[b], b = rb, parent[b]
        if ra == rb:
            continue
        merged = diameter[ra] + r + diameter[rb]
        if merged > budget:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        diameter[ra] = merged
        clusters -= 1

    roots = np.asarray(parent)
    while True:                                 # pointer jumping
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            break
        roots = jumped
    unique_roots, labels = np.unique(roots, return_inverse=True)
    diameters = np.asarray(diameter)[unique_roots]
    return LRDResult(labels=labels, n_clusters=len(unique_roots),
                     diameters=diameters, edge_resistance=edge_resistance,
                     edges=edges, budget=float(budget))


def cluster_sizes(labels):
    """Sizes of each cluster id in a label vector."""
    return np.bincount(labels)
