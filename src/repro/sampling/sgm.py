"""The SGM-PINN sampler (paper §3, Algorithm 1).

Pipeline per the paper:

* **S1** build a kNN PGM over the point cloud (``repro.graph.knn``);
* **S2** LRD-decompose it into clusters of bounded effective-resistance
  diameter (``repro.graph.lrd``) — members of a cluster are strongly
  conditionally dependent, so a few loss probes represent the whole cluster;
* **S3** (parameterized problems) fuse SPADE/ISR stability scores so that
  clusters whose loss estimates are unreliable receive extra samples;
* **S4** every ``tau_e`` iterations, probe the loss on a fraction ``r`` of
  each cluster, rank clusters, map scores to per-cluster sampling ratios
  ``P``, and emit an epoch with ``P_i * S_i`` samples per cluster (with a
  floor of one sample per cluster so no region is forgotten).  Every
  ``tau_G`` iterations rebuild the graph and clusters.

S1 + S2 live in :class:`ClusterPlan` alone.  Rebuild ``i`` is a pure
function of ``(graph features, seed, i)``: its LRD seed comes from
``SeedSequence([seed, ClusterPlan._STREAM, i])``, never from a sampler's
stream, so it is known before it is needed and every rank that builds it
gets the same labels.  A plan is split into ``n_shards`` whole-cluster
shards, one :class:`SGMSampler` each; serial SGM is the one-shard plan, and
data-parallel training (:mod:`repro.dp`) hands every shard sampler the
same plan.  S3 + S4 are the sampler's, over its own shard's clusters.

Overhead accounting matches §3.6: each refresh probes ``r * N`` points.
Rebuilds run synchronously in the step that triggers them, so their wall
time is charged to the training clock; the ``sampler.rebuild`` span and
the ``sampler.rebuild_seconds`` counter report it.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..graph import assign_clusters, knn_adjacency, lrd_decompose
from ..stability import spade_scores
from .base import Sampler, _scalar

__all__ = ["ClusterPlan", "SGMSampler"]


def _minmax(values):
    """Normalise to [0, 1]; constant vectors map to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-300:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def knn_lrd_labels(features, *, k, level, num_vectors, seed, adjacency=None):
    """S1 + S2: cluster labels of a kNN PGM's LRD decomposition.

    Returns ``(labels, adjacency)``.  A given ``adjacency`` (the kNN PGM of
    the same ``features``) skips S1."""
    if adjacency is None:
        with obs.span("sampler.knn_build"):
            adjacency = knn_adjacency(features, k)
    with obs.span("sampler.cluster_update"):
        labels = lrd_decompose(adjacency, level=level,
                               num_vectors=num_vectors, seed=seed).labels
    return labels, adjacency


def split_clusters(labels):
    """Member index arrays of every cluster, in ascending label order."""
    order = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, boundaries)


class ClusterPlan:
    """The S1 + S2 clustering of one cloud, for every rebuild index.

    Shared by the ``n_shards`` samplers that split the cloud's clusters
    (one for serial SGM).  Only the latest rebuild is cached: samplers
    sharing a plan rebuild in lockstep, so the shards co-located on one
    rank share a single decomposition.  The kNN PGM of the plan's own
    features does not depend on the rebuild index, so it is built once and
    kept; only the LRD step, whose seed does, runs again.
    """

    #: spawn-key constant separating plan RNG streams from sampler streams
    _STREAM = 104729

    def __init__(self, features, n_shards=1, *, k, level, num_vectors=16,
                 seed=0):
        """
        Parameters
        ----------
        features:
            ``(n, d+p)`` sample matrix ``X`` — spatial coordinates plus any
            geometry parameters (the PGM is built over these features).
        n_shards:
            Number of samplers the clusters are split over (1 = serial).
        k:
            kNN size for the PGM (paper: 30 for LDC, 7 for the annular ring).
        level:
            LRD coarsening level ``L`` (paper: 10 for LDC, 6 for AR).
        num_vectors:
            Sketch depth for the effective-resistance estimator.
        seed:
            Root of every rebuild's LRD seed.
        """
        self.features = np.asarray(features, dtype=np.float64)
        self.n_shards = int(n_shards)
        self.k = int(k)
        self.level = int(level)
        self.num_vectors = int(num_vectors)
        self.seed = int(seed)
        self._latest = None
        self._adjacency = None

    def labels(self, rebuild_index, features=None):
        """The global cluster labels of rebuild ``rebuild_index``.

        ``features`` replaces the plan's own for this build (§3.2's
        output-augmented graph); every caller of one rebuild must pass the
        same matrix; its kNN PGM is built afresh on every rebuild.  Only
        the call that actually builds the decomposition is timed (cache hits
        are free), so a build is counted once.
        """
        if self._latest is not None and self._latest[0] == rebuild_index:
            return self._latest[1]
        own_features = features is None
        features = self.features if own_features else features
        seed = int(np.random.default_rng(np.random.SeedSequence(
            [self.seed, self._STREAM, rebuild_index])).integers(2 ** 31))
        with obs.timed_span("sampler.rebuild") as rebuild_timer:
            labels, adjacency = knn_lrd_labels(
                features, k=self.k, level=self.level,
                num_vectors=self.num_vectors, seed=seed,
                adjacency=self._adjacency if own_features else None)
            if own_features:
                self._adjacency = adjacency
        self._latest = (rebuild_index, labels)
        obs.inc("sampler.rebuild_count")
        obs.inc("sampler.rebuild_seconds", rebuild_timer.seconds)
        return labels


class SGMSampler(Sampler):
    """Cluster-level importance sampling via sampling graphical models."""

    name = "sgm"

    def __init__(self, plan, shard=0, *, tau_e=7000, tau_G=25000,
                 probe_ratio=0.15, use_isr=False, isr_weight=1.0, isr_k=10,
                 isr_rank=6, ratio_range=(0.05, 0.9),
                 append_output_features=False, output_feature_weight=1.0,
                 seed=0, **plan_options):
        """
        Parameters
        ----------
        plan:
            The :class:`ClusterPlan` whose clusters this sampler draws
            from, or a bare feature matrix, which stands for the one-shard
            plan ``ClusterPlan(features, 1, seed=seed, **plan_options)``.
        shard:
            Which of the plan's shards this sampler owns.
        tau_e:
            Score-refresh cadence in iterations (paper: 7k).
        tau_G:
            Graph/cluster rebuild cadence (paper: 25k LDC, 60k AR).
        probe_ratio:
            Fraction ``r`` of each cluster probed per refresh (paper: 15%).
        use_isr:
            Enable the S3 stability term (the paper's SGM-S variant).
        isr_weight:
            Relative weight of the normalised ISR term in the cluster score.
        ratio_range:
            ``(p_min, p_max)`` sampling-ratio range the cluster scores are
            mapped onto (Algorithm 1, line 9).
        append_output_features:
            §3.2: at every ``tau_G`` rebuild after the first, append the
            network's current outputs (e.g. flow velocities) to the graph
            features, so later PGMs encode output-space similarity too.
            Costs one forward pass per dataset point per rebuild, counted in
            :attr:`probe_points`.
        output_feature_weight:
            Scale of the appended (standardised) output columns relative to
            the standardised input features.
        """
        if not isinstance(plan, ClusterPlan):
            plan = ClusterPlan(plan, 1, seed=seed, **plan_options)
        elif plan_options:
            raise TypeError(f"{sorted(plan_options)} are ClusterPlan "
                            f"options; set them on the plan")
        super().__init__(len(plan.features), seed=seed)
        self.plan = plan
        self.shard = int(shard)
        self.tau_e = int(tau_e)
        self.tau_g = int(tau_G)
        self.probe_ratio = float(probe_ratio)
        if not 0.0 < self.probe_ratio <= 1.0:
            raise ValueError("probe_ratio must lie in (0, 1]")
        self.use_isr = bool(use_isr)
        self.isr_weight = float(isr_weight)
        self.isr_k = int(isr_k)
        self.isr_rank = int(isr_rank)
        self.ratio_min, self.ratio_max = map(float, ratio_range)
        if not 0.0 < self.ratio_min <= self.ratio_max <= 1.0:
            raise ValueError("need 0 < p_min <= p_max <= 1")
        self.append_output_features = bool(append_output_features)
        self.output_feature_weight = float(output_feature_weight)

        self.labels = None
        self.clusters = []
        self.cluster_scores = None
        self.sampling_ratios = None
        self._epoch = None
        self._cursor = 0
        self.refresh_count = 0
        self.rebuild_count = 0

    # ------------------------------------------------------------------
    # S1 + S2: adopt the plan's clustering
    # ------------------------------------------------------------------
    def _standardise(self, matrix):
        std = matrix.std(axis=0)
        std[std < 1e-12] = 1.0
        return (matrix - matrix.mean(axis=0)) / std

    def _graph_features(self):
        """Features the PGM is built over; ``None`` keeps the plan's own.

        §3.2 optionally appends the network's current outputs after the
        first rebuild."""
        if (not self.append_output_features or self.rebuild_count == 0
                or self.probe_outputs is None):
            return None
        outputs = np.asarray(self.probe_outputs(np.arange(self.n_points)),
                             dtype=np.float64)
        self.probe_points += self.n_points
        return np.concatenate(
            [self._standardise(self.plan.features),
             self.output_feature_weight * self._standardise(outputs)],
            axis=1)

    def build_clusters(self):
        """Adopt the plan's rebuild :attr:`rebuild_count`."""
        self._set_labels(self.plan.labels(self.rebuild_count,
                                          self._graph_features()))
        self.rebuild_count += 1

    def _set_labels(self, labels):
        """Adopt the plan's global cluster labels and derive this shard's
        member lists (deterministic, so checkpoints only need to persist
        the labels themselves)."""
        self.labels = labels
        clusters = split_clusters(labels)
        shard_of_cluster = assign_clusters([len(c) for c in clusters],
                                           self.plan.n_shards)
        # derived deterministically from labels above, which state_dict
        # persists; re-deriving on load keeps checkpoints small
        self.clusters = [  # repro: noqa RPR007
            members for members, shard in zip(clusters, shard_of_cluster)
            if shard == self.shard]

    # ------------------------------------------------------------------
    # S3 + S4: scoring and epoch assembly
    # ------------------------------------------------------------------
    def _probe_subset(self):
        """Pick ``ceil(r * |C_i|)`` members of every cluster."""
        chosen = []
        for members in self.clusters:
            count = max(1, int(np.ceil(self.probe_ratio * len(members))))
            if count >= len(members):
                chosen.append(members)
            else:
                chosen.append(self.rng.choice(members, size=count,
                                              replace=False))
        return chosen

    def refresh_scores(self):
        """Probe cluster losses (and ISR) and assemble a new epoch."""
        if self.probe_loss is None:
            raise RuntimeError("SGM sampler needs probe callbacks bound "
                               "before training starts")
        with obs.timed_span("sampler.refresh") as refresh_timer:
            subsets = self._probe_subset()
            flat = np.concatenate(subsets)
            losses = np.asarray(self.probe_loss(flat),
                                dtype=np.float64).ravel()
            self.probe_points += len(flat)

            sizes = np.array([len(s) for s in subsets])
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            cluster_loss = np.array([
                losses[offsets[i]:offsets[i + 1]].mean()
                for i in range(len(subsets))])
            score = _minmax(cluster_loss)

            if self.use_isr:
                score = score + self.isr_weight * self._isr_scores(flat,
                                                                   offsets)

            self.cluster_scores = score
            self.sampling_ratios = (self.ratio_min +
                                    (self.ratio_max - self.ratio_min) *
                                    _minmax(score))
            self._build_epoch()
        self.refresh_count += 1
        obs.inc("sampler.refresh_count")
        obs.inc("sampler.refresh_seconds", refresh_timer.seconds)

    def _isr_scores(self, flat, offsets):
        """Normalised per-cluster ISR from a SPADE pass on the probe subset."""
        if self.probe_outputs is None:
            raise RuntimeError("use_isr=True requires a probe_outputs "
                               "callback")
        outputs = np.asarray(self.probe_outputs(flat), dtype=np.float64)
        k_eff = min(self.isr_k, len(flat) - 2)
        if k_eff < 2:
            return np.zeros(len(offsets) - 1)
        result = spade_scores(self.plan.features[flat], outputs, k=k_eff,
                              rank=min(self.isr_rank, k_eff))
        per_cluster = np.array([
            result.node_scores[offsets[i]:offsets[i + 1]].mean()
            for i in range(len(offsets) - 1)])
        return _minmax(per_cluster)

    def _build_epoch(self):
        """Epoch with ``max(1, round(P_i * S_i))`` samples per cluster."""
        parts = []
        for ratio, members in zip(self.sampling_ratios, self.clusters):
            count = max(1, int(round(ratio * len(members))))
            if count >= len(members):
                parts.append(members)
            else:
                parts.append(self.rng.choice(members, size=count,
                                             replace=False))
        epoch = np.concatenate(parts)
        self.rng.shuffle(epoch)
        self._epoch = epoch
        self._cursor = 0

    # ------------------------------------------------------------------
    # Sampler interface
    # ------------------------------------------------------------------
    def start(self):
        self.build_clusters()

    def batch_indices(self, step, batch_size):
        if not self.clusters:
            self.start()
        if step > 0 and self.tau_g > 0 and step % self.tau_g == 0:
            self.build_clusters()
            self.refresh_scores()
        elif self._epoch is None or (step > 0 and step % self.tau_e == 0):
            self.refresh_scores()

        batch = np.empty(batch_size, dtype=int)
        filled = 0
        while filled < batch_size:
            take = min(batch_size - filled, len(self._epoch) - self._cursor)
            batch[filled:filled + take] = \
                self._epoch[self._cursor:self._cursor + take]
            filled += take
            self._cursor += take
            if self._cursor >= len(self._epoch):
                self.rng.shuffle(self._epoch)   # Algorithm 1, line 12
                self._cursor = 0
        return batch

    # ------------------------------------------------------------------
    def state_dict(self):
        """Everything mutable: RNG, clusters, scores, epoch, counters.

        Clusters are persisted as labels only (:meth:`_set_labels` rebuilds
        the member lists deterministically), so restoring mid-run skips the
        graph rebuild entirely — exactly what bit-identical resume needs.
        """
        state = super().state_dict()
        state["refresh_count"] = self.refresh_count
        state["rebuild_count"] = self.rebuild_count
        if self.labels is not None:
            state["labels"] = np.asarray(self.labels).copy()
        if self.cluster_scores is not None:
            state["cluster_scores"] = np.asarray(self.cluster_scores).copy()
            state["sampling_ratios"] = np.asarray(self.sampling_ratios).copy()
        if self._epoch is not None:
            state["epoch"] = np.asarray(self._epoch).copy()
            state["cursor"] = self._cursor
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.refresh_count = int(_scalar(state["refresh_count"]))
        self.rebuild_count = int(_scalar(state["rebuild_count"]))
        if "labels" in state:
            self._set_labels(np.asarray(state["labels"], dtype=int).copy())
        if "cluster_scores" in state:
            self.cluster_scores = np.asarray(state["cluster_scores"],
                                             dtype=np.float64).copy()
            self.sampling_ratios = np.asarray(state["sampling_ratios"],
                                              dtype=np.float64).copy()
        if "epoch" in state:
            self._epoch = np.asarray(state["epoch"], dtype=int).copy()
            self._cursor = int(_scalar(state["cursor"]))

    # ------------------------------------------------------------------
    @property
    def indices(self):
        """Sorted global indices of the points in this sampler's clusters."""
        return np.sort(np.concatenate(self.clusters))

    def epoch_composition(self):
        """Current sample count of every owned cluster, in :attr:`clusters`
        order (diagnostics / tests)."""
        if self._epoch is None:
            raise RuntimeError("no epoch built yet")
        counts = np.bincount(self.labels[self._epoch],
                             minlength=self.labels.max() + 1)
        return counts[[self.labels[members[0]] for members in self.clusters]]
