"""Shard-local samplers over disjoint pieces of one collocation cloud.

Every shard sampler draws mini-batch indices **in the global index space**
of its constraint's cloud, so the trainer's residual evaluation and probe
callbacks work unchanged.  What is local is the *state*: each shard owns
its own RNG stream, importance weights, epochs, and cursors — seeded by
``(seed, constraint, shard)`` — so shard ``s`` behaves identically no
matter which worker hosts it.

Uniform and MIS shards wrap the serial samplers over the shard's stride
subset (:class:`ShardSampler`).  SGM shards are plain
:class:`~repro.sampling.SGMSampler` instances over one shared ``S``-shard
:class:`~repro.sampling.ClusterPlan` (serial SGM is the one-shard plan).
Rebuild ``i`` is a pure function of ``(features, run seed, i)``, seeded
from ``SeedSequence([seed, ClusterPlan._STREAM, i])``, so every rank
derives the same labels, and each shard owns the whole clusters the
plan's LPT assignment hands it.  Scores are refreshed from shard-local
statistics (the local min–max keeps every shard's epoch well-spread even
when its clusters' losses cover a narrow range).
"""

from __future__ import annotations

import numpy as np

from ..sampling import MISSampler, SGMSampler, UniformSampler
from .partition import stride_shards

__all__ = ["ShardSampler", "make_shard_sampler", "shard_cover"]


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
    """Former name of a shard's :class:`~repro.sampling.SGMSampler`.

    Defines nothing: ``perfbench/layers.py`` still looks this name up, and
    it goes when that catalog next changes.
    """


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
        return SGMSampler(
            plan, shard, tau_e=config.tau_e, tau_G=config.tau_G,
            probe_ratio=config.probe_ratio, seed=seed_seq)
    indices = stride_shards(constraint.n_points, n_shards)[shard]
    if kind == "mis":
        inner = MISSampler(len(indices), tau_e=config.tau_e, seed=seed_seq)
    else:
        inner = UniformSampler(len(indices), seed=seed_seq)
    return ShardSampler(inner, indices)


def shard_cover(samplers, n_points):
    """The per-shard global index sets of a full shard-sampler row.

    For stride shards this is the wrapped partition; for SGM shards it is
    the union of owned clusters.  Used by the disjoint-cover checks.
    """
    return [np.asarray(sampler.indices) for sampler in samplers]
