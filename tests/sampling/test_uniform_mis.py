"""Uniform and MIS baseline samplers."""

import numpy as np
import pytest

from repro.sampling import MISSampler, UniformSampler


class TestUniform:
    def test_batches_within_range_and_unique(self):
        sampler = UniformSampler(100, seed=0)
        batch = sampler.batch_indices(0, 32)
        assert batch.shape == (32,)
        assert len(np.unique(batch)) == 32
        assert batch.min() >= 0 and batch.max() < 100

    def test_deterministic_under_seed(self):
        a = UniformSampler(50, seed=3).batch_indices(0, 10)
        b = UniformSampler(50, seed=3).batch_indices(0, 10)
        assert np.array_equal(a, b)

    def test_batch_larger_than_dataset_allows_replacement(self):
        sampler = UniformSampler(10, seed=0)
        batch = sampler.batch_indices(0, 25)
        assert batch.shape == (25,)

    def test_no_probe_overhead(self):
        sampler = UniformSampler(100)
        sampler.batch_indices(0, 8)
        assert sampler.probe_points == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            UniformSampler(0)

    def test_coverage_over_many_batches(self):
        sampler = UniformSampler(40, seed=1)
        seen = set()
        for step in range(50):
            seen.update(sampler.batch_indices(step, 8).tolist())
        assert len(seen) == 40


class TestMIS:
    def make_sampler(self, n=200, tau_e=10, **kw):
        sampler = MISSampler(n, tau_e=tau_e, seed=0, **kw)
        # importance concentrated on the first half of the indices
        values = np.zeros(n)
        values[: n // 2] = 1.0

        def probe(indices):
            return values[indices]

        sampler.bind_probes(probe_loss=probe, probe_grad_norm=probe)
        return sampler, values

    def test_requires_probes(self):
        sampler = MISSampler(10, tau_e=5)
        with pytest.raises(RuntimeError):
            sampler.batch_indices(0, 4)

    def test_probabilities_follow_measure(self):
        sampler, values = self.make_sampler()
        sampler.batch_indices(0, 16)
        p = sampler.probabilities
        assert p[0] > 3.0 * p[-1]
        assert np.isclose(p.sum(), 1.0)

    def test_floor_keeps_all_points_reachable(self):
        sampler, _ = self.make_sampler(floor_fraction=0.2)
        sampler.batch_indices(0, 16)
        assert sampler.probabilities.min() > 0.0

    def test_empirical_sampling_bias(self):
        sampler, values = self.make_sampler()
        counts = np.zeros(200)
        for step in range(200):
            batch = sampler.batch_indices(step, 32)
            np.add.at(counts, batch, 1.0)
        high = counts[:100].sum()
        low = counts[100:].sum()
        assert high > 2.0 * low

    def test_probe_overhead_counted_per_refresh(self):
        sampler, _ = self.make_sampler(n=100, tau_e=10)
        for step in range(20):
            sampler.batch_indices(step, 8)
        # refresh at step 0 and step 10
        assert sampler.probe_points == 200
        assert sampler.refresh_count == 2

    def test_importance_weights_mean_one(self):
        sampler, _ = self.make_sampler()
        batch = sampler.batch_indices(0, 32)
        w = sampler.batch_weights(batch)
        assert np.isclose(w.mean(), 1.0)
        assert np.all(w > 0)

    def test_zero_measure_falls_back_to_uniform(self):
        sampler = MISSampler(50, tau_e=5, seed=0)
        sampler.bind_probes(probe_loss=lambda i: np.zeros(len(i)),
                            probe_grad_norm=lambda i: np.zeros(len(i)))
        sampler.batch_indices(0, 8)
        assert np.allclose(sampler.probabilities, 1.0 / 50)

    def test_batch_larger_than_dataset_falls_back_to_replacement(self):
        # regression: rng.choice(replace=False, p=...) used to raise
        # "Cannot take a larger sample than population" on small configs
        sampler, _ = self.make_sampler(n=10)
        batch = sampler.batch_indices(0, 25)
        assert batch.shape == (25,)
        assert batch.min() >= 0 and batch.max() < 10
        w = sampler.batch_weights(batch)
        assert np.all(np.isfinite(w)) and np.isclose(w.mean(), 1.0)

    def test_batch_exceeding_admissible_points_uses_replacement(self):
        # floor_fraction=0 zeroes half the probabilities; a batch larger
        # than the admissible half must still draw (with replacement) and
        # never touch a zero-probability index
        sampler, values = self.make_sampler(n=20, floor_fraction=0.0)
        batch = sampler.batch_indices(0, 15)
        assert batch.shape == (15,)
        assert np.all(values[batch] > 0)

    def test_small_batch_path_leaves_common_path_untouched(self):
        # the replacement fallback must not perturb the RNG stream of
        # ordinary draws (golden trajectories depend on it)
        a, _ = self.make_sampler(n=50)
        b, _ = self.make_sampler(n=50)
        assert np.array_equal(a.batch_indices(0, 16), b.batch_indices(0, 16))

    def test_rejects_non_positive_batch(self):
        sampler, _ = self.make_sampler(n=10)
        with pytest.raises(ValueError, match="positive"):
            sampler.batch_indices(0, 0)
