"""PGM construction and spectral clustering substrates (paper S1 + S2)."""

from .knn import knn_search, knn_graph_edges
from .laplacian import (
    adjacency_from_edges, knn_adjacency, laplacian, degree_vector,
    spd_factor,
)
from .resistance import (
    exact_effective_resistance, approx_edge_resistance, resistance_embedding,
)
from .lrd import LRDResult, lrd_decompose, cluster_sizes
from .partition import assign_clusters
from .conductance import cut_fraction, cluster_conductance, partition_summary

__all__ = [
    "cut_fraction", "cluster_conductance", "partition_summary",
    "knn_search", "knn_graph_edges",
    "adjacency_from_edges", "knn_adjacency", "laplacian", "degree_vector",
    "spd_factor", "exact_effective_resistance", "approx_edge_resistance",
    "resistance_embedding",
    "LRDResult", "lrd_decompose", "cluster_sizes",
    "assign_clusters",
]
