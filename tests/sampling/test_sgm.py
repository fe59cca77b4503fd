"""SGM-PINN sampler: clustering, scoring, epoch invariants (Algorithm 1)."""

import numpy as np
import pytest

from repro.sampling import ClusterPlan, SGMSampler


def grid_features(n_side=20):
    xs = np.linspace(0.0, 1.0, n_side)
    gx, gy = np.meshgrid(xs, xs)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def corner_loss(features):
    """High loss concentrated in the top-right corner."""
    def probe(indices):
        pts = features[indices]
        return np.exp(-20.0 * ((pts[:, 0] - 1.0) ** 2 +
                               (pts[:, 1] - 1.0) ** 2))
    return probe


def make_sampler(features=None, **kwargs):
    features = grid_features() if features is None else features
    defaults = dict(k=8, level=4, tau_e=50, tau_G=200, probe_ratio=0.15,
                    seed=0, num_vectors=12)
    defaults.update(kwargs)
    plan = ClusterPlan(features, 1, seed=defaults["seed"],
                       **{key: defaults.pop(key)
                          for key in ("k", "level", "num_vectors")})
    sampler = SGMSampler(plan, **defaults)
    sampler.bind_probes(probe_loss=corner_loss(features),
                        probe_outputs=lambda i: features[i])
    return sampler, features


class TestClustering:
    def test_start_builds_partition(self):
        sampler, features = make_sampler()
        sampler.start()
        assert sampler.labels.shape == (len(features),)
        total = sum(len(c) for c in sampler.clusters)
        assert total == len(features)

    def test_rebuild_counted(self):
        sampler, _ = make_sampler()
        sampler.start()
        assert sampler.rebuild_count == 1

    def test_tau_g_triggers_rebuild(self):
        sampler, _ = make_sampler(tau_G=60, tau_e=30)
        for step in range(61):
            sampler.batch_indices(step, 16)
        assert sampler.rebuild_count == 2


class TestScoring:
    def test_probe_count_is_r_fraction(self):
        sampler, _ = make_sampler(probe_ratio=0.15)
        sampler.start()
        sampler.refresh_scores()
        expected = sum(max(1, int(np.ceil(0.15 * len(c))))
                       for c in sampler.clusters)
        assert sampler.probe_points == expected

    def test_ratios_within_requested_range(self):
        sampler, _ = make_sampler(ratio_range=(0.1, 0.8))
        sampler.start()
        sampler.refresh_scores()
        assert np.all(sampler.sampling_ratios >= 0.1 - 1e-12)
        assert np.all(sampler.sampling_ratios <= 0.8 + 1e-12)

    def test_high_loss_cluster_gets_max_ratio(self):
        sampler, features = make_sampler()
        sampler.start()
        sampler.refresh_scores()
        centroids = np.array([features[c].mean(axis=0)
                              for c in sampler.clusters])
        corner = np.argmin(np.linalg.norm(centroids - np.array([1.0, 1.0]),
                                          axis=1))
        far = np.argmin(np.linalg.norm(centroids - np.array([0.0, 0.0]),
                                       axis=1))
        assert (sampler.sampling_ratios[corner] >
                sampler.sampling_ratios[far])
        assert np.isclose(sampler.sampling_ratios[corner], sampler.ratio_max,
                          atol=0.05)

    def test_requires_probe_binding(self):
        sampler = SGMSampler(ClusterPlan(grid_features(), 1, k=8, level=4))
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.refresh_scores()


class TestEpoch:
    def test_floor_one_sample_per_cluster(self):
        sampler, _ = make_sampler(ratio_range=(0.01, 0.9))
        sampler.start()
        sampler.refresh_scores()
        composition = sampler.epoch_composition()
        assert np.all(composition >= 1)

    def test_composition_matches_ratios(self):
        sampler, _ = make_sampler()
        sampler.start()
        sampler.refresh_scores()
        composition = sampler.epoch_composition()
        for count, ratio, members in zip(composition,
                                         sampler.sampling_ratios,
                                         sampler.clusters):
            assert count == max(1, int(round(ratio * len(members))))

    def test_epoch_has_no_duplicates(self):
        sampler, _ = make_sampler()
        sampler.start()
        sampler.refresh_scores()
        assert len(np.unique(sampler._epoch)) == len(sampler._epoch)

    def test_batches_cycle_through_epoch(self):
        sampler, _ = make_sampler(tau_e=1000)
        seen = set()
        for step in range(60):
            seen.update(sampler.batch_indices(step, 16).tolist())
        assert seen == set(sampler._epoch.tolist())

    def test_batch_exact_size_even_when_wrapping(self):
        sampler, _ = make_sampler()
        sampler.start()
        sampler.refresh_scores()
        epoch_len = len(sampler._epoch)
        batch = sampler.batch_indices(1, epoch_len + 7)
        assert len(batch) == epoch_len + 7

    def test_tau_e_triggers_refresh(self):
        sampler, _ = make_sampler(tau_e=25, tau_G=10_000)
        for step in range(51):
            sampler.batch_indices(step, 8)
        assert sampler.refresh_count == 3  # steps 0, 25, 50

    def test_deterministic_under_seed(self):
        a, _ = make_sampler(seed=11)
        b, _ = make_sampler(seed=11)
        batch_a = a.batch_indices(0, 32)
        batch_b = b.batch_indices(0, 32)
        assert np.array_equal(batch_a, batch_b)


class TestClusterPlan:
    """Serial SGM is the one-shard case of the shared cluster plan."""

    PLAN = dict(k=8, level=4, num_vectors=12, seed=5)

    def shard_samplers(self, n_shards):
        plan = ClusterPlan(grid_features(), n_shards, **self.PLAN)
        return [SGMSampler(plan, shard, seed=shard)
                for shard in range(n_shards)]

    @staticmethod
    def as_sets(clusters):
        return sorted(tuple(sorted(members.tolist())) for members in clusters)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_one_clustering_per_features_seed_and_rebuild(self, n_shards):
        serial = SGMSampler(ClusterPlan(grid_features(), 1, **self.PLAN),
                            seed=self.PLAN["seed"])
        shards = self.shard_samplers(n_shards)
        rebuilds = []
        for _ in range(2):
            serial.build_clusters()
            for sampler in shards:
                sampler.build_clusters()
            union = [c for sampler in shards for c in sampler.clusters]
            assert self.as_sets(union) == self.as_sets(serial.clusters)
            rebuilds.append(self.as_sets(serial.clusters))
        assert rebuilds[0] != rebuilds[1]   # the rebuild index matters

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_epoch_composition_counts_owned_clusters(self, n_shards):
        features = grid_features()
        for sampler in self.shard_samplers(n_shards):
            sampler.bind_probes(probe_loss=corner_loss(features))
            sampler.start()
            sampler.refresh_scores()
            composition = sampler.epoch_composition()
            expected = [np.isin(sampler._epoch, members).sum()
                        for members in sampler.clusters]
            np.testing.assert_array_equal(composition, expected)
            assert np.all(composition >= 1)


class TestKnnReuse:
    """The kNN PGM of a plan's own features is built once per plan."""

    PLAN = TestClusterPlan.PLAN

    @staticmethod
    def count_calls(monkeypatch, name):
        from repro.sampling import sgm as sgm_module
        calls = []
        original = getattr(sgm_module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(sgm_module, name, counted)
        return calls

    def test_rebuilds_of_own_features_build_knn_once(self, monkeypatch):
        fresh = [ClusterPlan(grid_features(), 1, **self.PLAN).labels(i)
                 for i in range(3)]
        knn_calls = self.count_calls(monkeypatch, "knn_adjacency")
        plan = ClusterPlan(grid_features(), 1, **self.PLAN)
        for i in range(3):
            np.testing.assert_array_equal(plan.labels(i), fresh[i])
        assert len(knn_calls) == 1

    def test_shards_sharing_a_plan_build_once_per_rebuild(self,
                                                          monkeypatch):
        knn_calls = self.count_calls(monkeypatch, "knn_adjacency")
        lrd_calls = self.count_calls(monkeypatch, "lrd_decompose")
        plan = ClusterPlan(grid_features(), 2, **self.PLAN)
        shards = [SGMSampler(plan, shard, seed=shard) for shard in range(2)]
        for _ in range(3):
            for sampler in shards:
                sampler.build_clusters()
        assert len(knn_calls) == 1
        assert len(lrd_calls) == 3


class TestCheckpoint:
    def test_checkpoint_with_retired_rebuild_seconds_resumes(self, tmp_path):
        # checkpoints written before the rebuild-seconds key was retired
        # still carry it; it is ignored and the resumed run is unchanged
        from repro.nn import FullyConnected
        from repro.training.checkpoint import load_checkpoint, save_checkpoint
        options = dict(tau_e=30, tau_G=60)
        uninterrupted, _ = make_sampler(**options)
        drawn = [uninterrupted.batch_indices(step, 16) for step in range(90)]

        interrupted, _ = make_sampler(**options)
        for step in range(40):
            interrupted.batch_indices(step, 16)
        state = interrupted.state_dict()
        state["rebuild_seconds"] = 0.125
        net = FullyConnected(2, 1, width=4, depth=1)
        path = tmp_path / "old.npz"
        save_checkpoint(path, net, extra={"samplers": {"interior": state}})

        resumed, _ = make_sampler(**options)
        extra = load_checkpoint(path, net)
        resumed.load_state_dict(extra["samplers"]["interior"])
        for step in range(40, 90):   # crosses the rebuild at step 60
            np.testing.assert_array_equal(resumed.batch_indices(step, 16),
                                          drawn[step])
        assert resumed.rebuild_count == 2


class TestISR:
    def features_with_transition(self):
        rng = np.random.default_rng(0)
        return rng.uniform(size=(500, 2))

    def test_isr_requires_output_probe(self):
        features = self.features_with_transition()
        sampler = SGMSampler(ClusterPlan(features, 1, k=8, level=4),
                             use_isr=True, seed=0)
        sampler.bind_probes(probe_loss=lambda i: np.ones(len(i)))
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.refresh_scores()

    def test_isr_boosts_unstable_region(self):
        features = self.features_with_transition()
        # outputs change sharply across x = 0.5; losses are uniform so the
        # ISR term is the only signal
        outputs = np.tanh(30.0 * (features[:, 0:1] - 0.5))

        def make(use_isr):
            plan = ClusterPlan(features, 1, k=8, level=4, num_vectors=12,
                               seed=0)
            sampler = SGMSampler(plan, use_isr=use_isr, probe_ratio=0.5,
                                 isr_k=8, seed=0)
            sampler.bind_probes(probe_loss=lambda i: np.ones(len(i)),
                                probe_outputs=lambda i: outputs[i])
            sampler.start()
            sampler.refresh_scores()
            centroids = np.array([features[c].mean(axis=0)
                                  for c in sampler.clusters])
            near = np.abs(centroids[:, 0] - 0.5) < 0.1
            far = np.abs(centroids[:, 0] - 0.5) > 0.3
            if not near.any() or not far.any():
                pytest.skip("clustering left no near/far clusters")
            return (sampler.sampling_ratios[near].mean(),
                    sampler.sampling_ratios[far].mean())

    # without ISR all ratios collapse to the same value (uniform loss)
        near_plain, far_plain = make(use_isr=False)
        assert np.isclose(near_plain, far_plain, atol=1e-6)
        near_isr, far_isr = make(use_isr=True)
        assert near_isr > far_isr
