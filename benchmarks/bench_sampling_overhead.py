"""§3.5/§3.6 overhead: score-refresh cost, MIS (full dataset) vs SGM (r·N).

The paper's central efficiency argument: prior IS methods recompute an
importance measure for *every* sample, while SGM probes only ``r = 15%`` of
each cluster.  This benchmark measures one refresh of each sampler on the
same LDC problem and asserts the probe accounting matches the claim.
"""

import numpy as np
import pytest

from repro.api import build_problem
from repro.experiments import ldc_config
from repro.nn import Adam, FullyConnected
from repro.sampling import ClusterPlan, MISSampler, SGMSampler
from repro.training import Trainer

N_POINTS = 8_000


@pytest.fixture(scope="module")
def ldc_training_setup():
    config = ldc_config("smoke")
    problem = build_problem("ldc", config, N_POINTS,
                            np.random.default_rng(0))
    for constraint in problem.constraints:
        constraint.batch_size = 64
    net = FullyConnected(problem.in_features, problem.out_features,
                         width=16, depth=2, rng=np.random.default_rng(0))
    return config, problem, net


def _trainer_with(sampler, problem, net):
    return Trainer(net, problem.constraints,
                   Adam(net.parameters(), lr=1e-3),
                   samplers={"interior": sampler}, seed=0)


def test_mis_refresh_probes_full_dataset(benchmark, ldc_training_setup):
    config, problem, net = ldc_training_setup
    sampler = MISSampler(N_POINTS, tau_e=10_000, seed=0)
    _trainer_with(sampler, problem, net)

    benchmark.pedantic(sampler._refresh, rounds=1, iterations=1)

    assert sampler.probe_points == N_POINTS  # every sample, as in Modulus


def test_sgm_refresh_probes_r_fraction(benchmark, ldc_training_setup):
    config, problem, net = ldc_training_setup
    plan = ClusterPlan(problem.interior_cloud.features(), 1, k=8, level=5,
                       num_vectors=8, seed=0)
    sampler = SGMSampler(plan, tau_e=10_000, tau_G=100_000, probe_ratio=0.15,
                         seed=0)
    _trainer_with(sampler, problem, net)
    sampler.start()

    benchmark.pedantic(sampler.refresh_scores, rounds=1, iterations=1)

    # r*N plus the 1-point floor for tiny clusters (§3.5)
    expected_min = int(0.15 * N_POINTS)
    assert expected_min <= sampler.probe_points <= int(0.35 * N_POINTS)
    print(f"\nSGM probed {sampler.probe_points} of {N_POINTS} points "
          f"({sampler.probe_points / N_POINTS:.1%}); MIS probes 100%")


def test_sgm_rebuild_cost(benchmark, ldc_training_setup):
    config, problem, net = ldc_training_setup
    plan = ClusterPlan(problem.interior_cloud.features(), 1, k=8, level=5,
                       num_vectors=8, seed=0)
    sampler = SGMSampler(plan, seed=0)

    benchmark.pedantic(sampler.build_clusters, rounds=1, iterations=1)

    assert sampler.rebuild_count == 1
    assert len(sampler.clusters) > 1
