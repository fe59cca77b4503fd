"""Hypothesis property tests on sampler invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import ClusterPlan, MISSampler, SGMSampler, UniformSampler


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 200), st.integers(1, 32), st.integers(0, 2 ** 31))
def test_uniform_batches_always_valid(n, batch, seed):
    sampler = UniformSampler(n, seed=seed)
    indices = sampler.batch_indices(0, batch)
    assert indices.shape == (batch,)
    assert indices.min() >= 0 and indices.max() < n


@settings(max_examples=25, deadline=None)
@given(st.integers(20, 150), st.integers(0, 2 ** 31))
def test_mis_probabilities_always_normalised(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=n)
    sampler = MISSampler(n, tau_e=100, seed=seed)
    sampler.bind_probes(probe_loss=lambda i: values[i],
                        probe_grad_norm=lambda i: values[i])
    sampler.batch_indices(0, min(8, n))
    assert np.isclose(sampler.probabilities.sum(), 1.0)
    assert np.all(sampler.probabilities > 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(20, 150), st.integers(0, 2 ** 31))
def test_mis_weights_positive_mean_one(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=n) + 0.01
    sampler = MISSampler(n, tau_e=100, seed=seed)
    sampler.bind_probes(probe_loss=lambda i: values[i],
                        probe_grad_norm=lambda i: values[i])
    batch = sampler.batch_indices(0, min(16, n))
    weights = sampler.batch_weights(batch)
    assert np.all(weights > 0)
    assert np.isclose(weights.mean(), 1.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(100, 300), st.integers(2, 6), st.integers(0, 2 ** 31))
def test_sgm_epoch_always_covers_every_cluster(n, level, seed):
    rng = np.random.default_rng(seed)
    features = rng.uniform(size=(n, 2))
    losses = rng.exponential(size=n)
    plan = ClusterPlan(features, 1, k=min(6, n - 2), level=level,
                       num_vectors=6, seed=seed)
    sampler = SGMSampler(plan, tau_e=1000, tau_G=10_000, seed=seed)
    sampler.bind_probes(probe_loss=lambda i: losses[i])
    sampler.start()
    sampler.refresh_scores()
    composition = sampler.epoch_composition()
    assert len(composition) == len(sampler.clusters)
    assert np.all(composition >= 1)                  # Algorithm 1 floor
    assert np.all(composition <= [len(c) for c in sampler.clusters])


@settings(max_examples=10, deadline=None)
@given(st.integers(100, 250), st.integers(0, 2 ** 31))
def test_sgm_probe_subset_within_clusters(n, seed):
    rng = np.random.default_rng(seed)
    features = rng.uniform(size=(n, 2))
    plan = ClusterPlan(features, 1, k=6, level=3, num_vectors=6, seed=seed)
    sampler = SGMSampler(plan, probe_ratio=0.2, seed=seed)
    sampler.bind_probes(probe_loss=lambda i: np.ones(len(i)))
    sampler.start()
    subsets = sampler._probe_subset()
    for members, subset in zip(sampler.clusters, subsets):
        assert set(subset.tolist()) <= set(members.tolist())
        assert len(subset) == max(1, int(np.ceil(0.2 * len(members))))
