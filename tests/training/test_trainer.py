"""Trainer integration: end-to-end convergence and sampler wiring."""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.nn import Adam, ExponentialDecayLR, FullyConnected
from repro.pde import Poisson2D
from repro.sampling import ClusterPlan, MISSampler, SGMSampler, UniformSampler
from repro.training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Trainer,
)


def poisson_problem(n_interior=1500, seed=0):
    rng = np.random.default_rng(seed)
    rect = Rectangle((0.0, 0.0), (1.0, 1.0))
    interior = rect.sample_interior(n_interior, rng)
    boundary = rect.sample_boundary(400, rng)
    pde = Poisson2D(source=lambda x, y:
                    -2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    ic = InteriorConstraint("interior", interior, pde, batch_size=128,
                            sdf_weighting=False)
    bc = BoundaryConstraint("walls", boundary, ("u",), {"u": 0.0},
                            batch_size=64, weight=10.0)
    val_pts = rng.uniform(0, 1, (300, 2))
    ref = np.sin(np.pi * val_pts[:, 0]) * np.sin(np.pi * val_pts[:, 1])
    validator = PointwiseValidator("poisson", val_pts, {"u": ref}, ("u",))
    return interior, [ic, bc], validator


def make_net(seed=1, width=24, depth=2):
    return FullyConnected(2, 1, width=width, depth=depth, activation="tanh",
                          rng=np.random.default_rng(seed))


class TestEndToEnd:
    def test_poisson_converges_with_uniform_sampling(self):
        _, constraints, validator = poisson_problem()
        net = make_net()
        trainer = Trainer(net, constraints, Adam(net.parameters(), lr=3e-3),
                          validators=[validator], seed=0)
        history = trainer.train(600, validate_every=100, record_every=100)
        assert history.min_error("u") < 0.2
        assert history.losses[-1] < 0.1 * history.losses[0]

    def test_poisson_with_sgm_sampler(self):
        interior, constraints, validator = poisson_problem()
        net = make_net()
        plan = ClusterPlan(interior.features(), 1, k=8, level=4,
                           num_vectors=8, seed=0)
        sgm = SGMSampler(plan, tau_e=150, tau_G=10_000, probe_ratio=0.15,
                         seed=0)
        trainer = Trainer(net, constraints,
                          Adam(net.parameters(), lr=3e-3),
                          samplers={"interior": sgm},
                          validators=[validator], seed=0)
        history = trainer.train(400, validate_every=100, record_every=100)
        assert history.min_error("u") < 0.35
        assert sgm.probe_points > 0
        assert history.probe_points[-1] == trainer.total_probe_points()

    def test_poisson_with_mis_sampler(self):
        interior, constraints, validator = poisson_problem()
        net = make_net()
        mis = MISSampler(len(interior), tau_e=150, seed=0)
        trainer = Trainer(net, constraints,
                          Adam(net.parameters(), lr=3e-3),
                          samplers={"interior": mis},
                          validators=[validator], seed=0)
        history = trainer.train(300, validate_every=100, record_every=100)
        # MIS probes the whole dataset at steps 0 and 150
        assert mis.probe_points == 2 * len(interior)
        assert np.isfinite(history.losses[-1])


class TestMechanics:
    def test_requires_constraints(self):
        net = make_net()
        with pytest.raises(ValueError):
            Trainer(net, [], Adam(net.parameters()))

    def test_uniform_sampler_default_no_overhead(self):
        _, constraints, _ = poisson_problem(n_interior=300)
        net = make_net(width=8, depth=1)
        trainer = Trainer(net, constraints, Adam(net.parameters()), seed=0)
        trainer.train(20, validate_every=10, record_every=10)
        assert trainer.total_probe_points() == 0

    def test_scheduler_steps(self):
        _, constraints, _ = poisson_problem(n_interior=300)
        net = make_net(width=8, depth=1)
        opt = Adam(net.parameters(), lr=1e-3)
        sched = ExponentialDecayLR(opt, decay_rate=0.5, decay_steps=10)
        trainer = Trainer(net, constraints, opt, scheduler=sched, seed=0)
        trainer.train(10, validate_every=100, record_every=5)
        assert opt.lr < 1e-3

    def test_wall_times_monotone(self):
        _, constraints, _ = poisson_problem(n_interior=300)
        net = make_net(width=8, depth=1)
        trainer = Trainer(net, constraints, Adam(net.parameters()), seed=0)
        history = trainer.train(30, validate_every=15, record_every=5)
        assert all(b >= a for a, b in zip(history.wall_times,
                                          history.wall_times[1:]))

    def test_multiple_validators_averaged(self):
        _, constraints, _ = poisson_problem(n_interior=300)
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(50, 2))
        v1 = PointwiseValidator("a", pts, {"u": np.zeros(50)}, ("u",))
        v2 = PointwiseValidator("b", pts, {"u": np.ones(50)}, ("u",))
        net = make_net(width=8, depth=1)
        trainer = Trainer(net, constraints, Adam(net.parameters()),
                          validators=[v1, v2], seed=0)
        merged = trainer.validate()
        direct = 0.5 * (v1.evaluate(net)["u"] + v2.evaluate(net)["u"])
        assert np.isclose(merged["u"], direct)

    def test_mid_run_rebuild_lands_on_the_wall_clock(self, monkeypatch):
        # rebuilds run synchronously, so a slow LRD build shows up in the
        # recorded wall time of the window it falls in
        from repro.sampling import sgm as sgm_module
        delay = 0.2
        build = sgm_module.lrd_decompose

        def slow_build(*args, **kwargs):
            time.sleep(delay)
            return build(*args, **kwargs)

        monkeypatch.setattr(sgm_module, "lrd_decompose", slow_build)
        interior, constraints, _ = poisson_problem(n_interior=600)
        net = make_net(width=8, depth=1)
        plan = ClusterPlan(interior.features(), 1, k=6, level=3,
                           num_vectors=8, seed=0)
        sgm = SGMSampler(plan, tau_e=20, tau_G=25, seed=0)
        trainer = Trainer(net, constraints, Adam(net.parameters()),
                          samplers={"interior": sgm}, seed=0)
        history = trainer.train(30, validate_every=100, record_every=5)
        assert sgm.rebuild_count == 2
        # the records at steps 20 and 25 bracket the rebuild at step 25
        after = history.steps.index(25)
        assert history.steps[after - 1] == 20
        gap = history.wall_times[after] - history.wall_times[after - 1]
        assert gap >= delay

    def test_finished_run_is_freed_without_a_collection(self):
        # the samplers' probe callbacks must not hold the trainer: a
        # trainer <-> sampler cycle keeps a finished run (replay program,
        # cluster plan, clouds, optimizer) alive until a full collection
        from repro.api.problems import build_problem
        from repro.api.registry import problem_registry
        from repro.api.samplers import make_sampler
        config = problem_registry.get("burgers").config_factory("smoke")
        prob = build_problem("burgers", config, 400,
                             np.random.default_rng(0))
        for constraint in prob.constraints:
            constraint.batch_size = 64
        net = FullyConnected(prob.in_features, prob.out_features, width=8,
                             depth=1, rng=np.random.default_rng(0))
        sampler = make_sampler("sgm", config, prob.interior_cloud, seed=0)
        trainer = Trainer(net, prob.constraints, Adam(net.parameters()),
                          samplers={"interior": sampler}, seed=0)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            trainer.train(12, validate_every=100, record_every=6,
                          compile=True)
            alive = weakref.ref(trainer)
            del trainer, sampler
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()
