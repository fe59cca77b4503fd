"""Shard-local samplers over disjoint pieces of one collocation cloud.

Every shard sampler draws mini-batch indices **in the global index space**
of its constraint's cloud, so the trainer's residual evaluation and probe
callbacks work unchanged.  What is local is the *state*: each shard owns
its own RNG stream, importance weights, epochs, and cursors — seeded by
``(seed, constraint, shard)`` — so shard ``s`` behaves identically no
matter which worker hosts it.

Uniform and MIS shards wrap the serial samplers over the shard's stride
subset (:class:`ShardSampler`); SGM shards own whole clusters handed out
by a rank-independent :class:`ClusterPlan`, and refresh their scores from
shard-local statistics (the local min–max keeps every shard's epoch
well-spread even when its clusters' losses cover a narrow range).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..sampling import MISSampler, SGMSampler, UniformSampler
from ..sampling.sgm import knn_lrd_labels, split_clusters
from .partition import assign_clusters, stride_shards

__all__ = [
    "ClusterPlan", "ShardSGMSampler", "ShardSampler", "make_shard_sampler",
    "shard_cover",
]


class ClusterPlan:
    """Rank-independent global clustering shared by every SGM shard.

    The kNN + LRD decomposition is a pure function of ``(features, seed,
    rebuild_index)`` — the RNG is reseeded per rebuild from a fixed
    :class:`~numpy.random.SeedSequence` spawn key instead of any sampler's
    stream — so every rank that builds rebuild ``i`` gets the same labels
    and the same whole-cluster shard assignment.  Builds are cached per
    rebuild index so the shards co-located on one rank share a single
    decomposition.
    """

    #: spawn-key constant separating plan RNG streams from sampler streams
    _STREAM = 104729

    def __init__(self, features, n_shards, *, k, level, num_vectors=16,
                 knn_backend="kdtree", seed=0):
        self.features = np.asarray(features, dtype=np.float64)
        self.n_shards = int(n_shards)
        self.k = int(k)
        self.level = int(level)
        self.num_vectors = int(num_vectors)
        self.knn_backend = knn_backend
        self.seed = int(seed)
        self._cache = {}

    def _build(self, rebuild_index):
        """``(clusters, shard_of_cluster, wall_seconds)`` for one rebuild.

        ``wall_seconds`` is non-zero only on the call that actually built
        the decomposition (cache hits are free) so the triggering sampler
        can charge the cost exactly once.
        """
        if rebuild_index in self._cache:
            clusters, shard_of_cluster = self._cache[rebuild_index]
            return clusters, shard_of_cluster, 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, self._STREAM,
                                    int(rebuild_index)]))
        with obs.timed_span("sampler.rebuild") as rebuild_timer:
            clusters = split_clusters(knn_lrd_labels(
                self.features, k=self.k, level=self.level,
                num_vectors=self.num_vectors, knn_backend=self.knn_backend,
                seed=int(rng.integers(2 ** 31))))
            shard_of_cluster = assign_clusters([len(c) for c in clusters],
                                               self.n_shards)
        self._cache[rebuild_index] = (clusters, shard_of_cluster)
        obs.inc("sampler.rebuild_count")
        obs.inc("sampler.rebuild_seconds", rebuild_timer.seconds)
        return clusters, shard_of_cluster, rebuild_timer.seconds

    def shard_members(self, rebuild_index, shard):
        """``(member_arrays, wall_seconds)``: this shard's clusters, in
        ascending cluster-id order (global point indices)."""
        clusters, shard_of_cluster, seconds = self._build(rebuild_index)
        members = [clusters[c] for c in range(len(clusters))
                   if shard_of_cluster[c] == int(shard)]
        return members, seconds

    def n_clusters(self, rebuild_index=0):
        clusters, _, _ = self._build(rebuild_index)
        return len(clusters)


class ShardSampler:
    """A serial sampler confined to one shard's global index subset.

    Wraps an inner :class:`~repro.sampling.Sampler` built over the shard's
    ``len(indices)`` local points and translates local indices to global
    ones on the way out (batches) and global to local on the way in (probe
    callbacks, importance weights).
    """

    def __init__(self, inner, indices):
        indices = np.asarray(indices, dtype=int)
        if len(indices) != inner.n_points:
            raise ValueError(f"inner sampler covers {inner.n_points} points "
                             f"but the shard holds {len(indices)}")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("shard indices must be strictly increasing "
                             "(searchsorted maps global back to local)")
        self.inner = inner
        self.indices = indices   # repro: noqa RPR007 — immutable partition
        self.name = inner.name

    # -- index translation ---------------------------------------------
    def _to_local(self, global_indices):
        global_indices = np.asarray(global_indices)
        local = np.searchsorted(self.indices, global_indices)
        if (np.any(local >= len(self.indices))
                or np.any(self.indices[np.minimum(
                    local, len(self.indices) - 1)] != global_indices)):
            raise IndexError("global index outside this shard")
        return local

    # -- sampler protocol ----------------------------------------------
    @property
    def n_points(self):
        return self.inner.n_points

    @property
    def probe_points(self):
        return self.inner.probe_points

    @property
    def rebuild_seconds(self):
        return self.inner.rebuild_seconds

    @property
    def refresh_count(self):
        return getattr(self.inner, "refresh_count", 0)

    @property
    def rebuild_count(self):
        return getattr(self.inner, "rebuild_count", 0)

    def bind_probes(self, probe_loss=None, probe_outputs=None,
                    probe_grad_norm=None):
        def globalise(fn):
            if fn is None:
                return None
            return lambda local: fn(self.indices[np.asarray(local)])
        self.inner.bind_probes(
            probe_loss=globalise(probe_loss),
            probe_outputs=globalise(probe_outputs),
            probe_grad_norm=globalise(probe_grad_norm))

    def start(self):
        self.inner.start()

    def batch_indices(self, step, batch_size):
        return self.indices[self.inner.batch_indices(step, batch_size)]

    def batch_weights(self, indices):
        weights = self.inner.batch_weights(self._to_local(indices))
        return weights

    def state_dict(self):
        return {f"inner.{key}": value
                for key, value in self.inner.state_dict().items()}

    def load_state_dict(self, state):
        self.inner.load_state_dict(
            {key[len("inner."):]: value for key, value in state.items()
             if key.startswith("inner.")})


class ShardSGMSampler(SGMSampler):
    """SGM importance sampling restricted to one shard's whole clusters.

    Probing, scoring, epochs and checkpoints are
    :class:`~repro.sampling.SGMSampler`'s own, over the clusters the
    :class:`ClusterPlan` assigned to this shard, with the min–max score
    normalisation computed shard-locally.  Only where clusters come from
    differs: each (re)build adopts this shard's slice of the *global* plan
    for that rebuild — identical on every rank — instead of building a
    graph of its own.
    """

    def __init__(self, plan, shard, *, tau_e=7000, tau_G=25000,
                 probe_ratio=0.15, ratio_range=(0.05, 0.9), seed=0):
        super().__init__(plan.features, k=plan.k, level=plan.level,
                         tau_e=tau_e, tau_G=tau_G, probe_ratio=probe_ratio,
                         ratio_range=ratio_range,
                         num_vectors=plan.num_vectors,
                         knn_backend=plan.knn_backend, seed=seed)
        self.plan = plan
        self.shard = int(shard)

    def _plan_clusters(self, rebuild_index):
        members, seconds = self.plan.shard_members(rebuild_index, self.shard)
        if not members:
            raise ValueError(
                f"shard {self.shard} received no clusters from the plan "
                f"({self.plan.n_clusters(rebuild_index)} clusters over "
                f"{self.plan.n_shards} shards); lower dp_shards or the LRD "
                f"level")
        return members, seconds

    def build_clusters(self):
        """Adopt this shard's slice of the plan's next rebuild."""
        self.clusters, seconds = self._plan_clusters(self.rebuild_count)
        self.rebuild_seconds += seconds
        self.rebuild_count += 1

    def load_state_dict(self, state):
        super().load_state_dict(state)
        if self.rebuild_count > 0:
            # clusters are derived state: re-adopt the plan's deterministic
            # decomposition for the last rebuild instead of persisting them
            self.clusters, _ = self._plan_clusters(self.rebuild_count - 1)

    def owned_points(self):
        """All global indices this shard owns (its clusters, concatenated)."""
        if not self.clusters:
            self.start()
        return np.concatenate(self.clusters)


#: sampler-registry kinds the data-parallel mode supports
SUPPORTED_KINDS = ("uniform", "mis", "sgm")


def make_shard_sampler(kind, config, constraint, *, n_shards, shard,
                       seed_seq, plan=None):
    """Build the sampler for one ``(constraint, shard)`` cell.

    ``seed_seq`` is the cell's :class:`~numpy.random.SeedSequence` — a pure
    function of ``(run seed, constraint index, shard)``, never of the
    worker layout.  ``plan`` is required for ``kind="sgm"``.
    """
    if kind not in SUPPORTED_KINDS:
        raise ValueError(
            f"data-parallel training supports sampler kinds "
            f"{SUPPORTED_KINDS}, got {kind!r}")
    if kind == "sgm":
        if plan is None:
            raise ValueError("sgm shard samplers need a ClusterPlan")
        return ShardSGMSampler(
            plan, shard, tau_e=config.tau_e, tau_G=config.tau_G,
            probe_ratio=config.probe_ratio, seed=seed_seq)
    indices = stride_shards(constraint.n_points, n_shards)[shard]
    if kind == "mis":
        inner = MISSampler(len(indices), tau_e=config.tau_e,
                           measure="grad_norm", seed=seed_seq)
    else:
        inner = UniformSampler(len(indices), seed=seed_seq)
    return ShardSampler(inner, indices)


def shard_cover(samplers, n_points):
    """The per-shard global index sets of a full shard-sampler row.

    For stride shards this is the wrapped partition; for SGM shards it is
    the union of owned clusters.  Used by the disjoint-cover checks.
    """
    cover = []
    for sampler in samplers:
        if isinstance(sampler, ShardSGMSampler):
            cover.append(np.sort(sampler.owned_points()))
        else:
            cover.append(np.asarray(sampler.indices))
    return cover
