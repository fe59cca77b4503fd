"""Cluster-to-shard assignment for data-parallel SGM.

:func:`assign_clusters` bin-packs the whole clusters of one LRD
decomposition onto data-parallel shards, so every shard samples complete
clusters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assign_clusters"]


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
