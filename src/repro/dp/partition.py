"""Shard partitioning: exact disjoint covers of clouds and batches.

Every partition here is a pure function of ``(n, n_shards)`` — never of
the worker count — so the same logical shards exist no matter how many
workers host them (SGM shards own whole clusters instead, see
:func:`repro.graph.assign_clusters`).  The invariant every
helper maintains, and :func:`check_disjoint_cover` asserts, is *exact
disjoint cover*: each index lands in exactly one shard.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_disjoint_cover", "shard_batch_sizes", "stride_shards"]


def stride_shards(n_points, n_shards):
    """Partition ``range(n_points)`` by stable index stride.

    Shard ``s`` owns indices ``s, s + S, s + 2S, ...`` — a deterministic
    interleave that keeps every shard's subset spread over the whole cloud
    (uniform and MIS sampling stay representative per shard).
    """
    n_points, n_shards = int(n_points), int(n_shards)
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_points < n_shards:
        raise ValueError(f"cannot stride {n_points} points over {n_shards} "
                         f"shards without an empty shard")
    indices = np.arange(n_points)
    return [indices[shard::n_shards] for shard in range(n_shards)]


def shard_batch_sizes(batch_size, n_shards):
    """Split a global batch size into per-shard sizes (earlier shards take
    the remainder, one extra sample each)."""
    batch_size, n_shards = int(batch_size), int(n_shards)
    if batch_size < n_shards:
        raise ValueError(f"batch size {batch_size} cannot feed {n_shards} "
                         f"shards with at least one sample each")
    base, extra = divmod(batch_size, n_shards)
    return [base + (1 if shard < extra else 0) for shard in range(n_shards)]


def check_disjoint_cover(shards, n_points):
    """Raise unless ``shards`` partition ``range(n_points)`` exactly."""
    seen = np.zeros(int(n_points), dtype=int)
    for shard in shards:
        shard = np.asarray(shard, dtype=int)
        if shard.size and (shard.min() < 0 or shard.max() >= n_points):
            raise ValueError(f"shard index out of range for {n_points} "
                             f"points")
        np.add.at(seen, shard, 1)
    if (seen > 1).any():
        raise ValueError(f"{int((seen > 1).sum())} points appear in more "
                         f"than one shard")
    if (seen == 0).any():
        raise ValueError(f"{int((seen == 0).sum())} points missing from "
                         f"every shard")
