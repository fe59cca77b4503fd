"""DataConstraint and end-to-end inverse-problem training."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.geometry import Rectangle
from repro.nn import Adam, FullyConnected
from repro.pde import Burgers1D, TrainableCoefficient
from repro.training import DataConstraint, InteriorConstraint, Trainer
from repro.geometry import PointCloud

RNG = np.random.default_rng(0)


class StubNet:
    def __call__(self, features):
        x = features[:, 0:1]
        y = features[:, 1:2]
        return ad.concat([2.0 * x, x + y], axis=1)


class TestDataConstraint:
    def make_cloud(self, n=40):
        return PointCloud(coords=RNG.uniform(size=(n, 2)))

    def test_zero_residual_on_exact_data(self):
        cloud = self.make_cloud()
        dc = DataConstraint("sensors", cloud, ("u", "v"),
                            {"u": 2.0 * cloud.coords[:, 0]}, batch_size=8)
        residuals, weight = dc.residuals(StubNet(), np.arange(8))
        assert np.allclose(residuals["sensors_u"].numpy(), 0.0, atol=1e-12)
        assert weight is None

    def test_nonzero_residual_on_biased_data(self):
        cloud = self.make_cloud()
        dc = DataConstraint("sensors", cloud, ("u", "v"),
                            {"u": np.zeros(len(cloud))}, batch_size=8)
        residuals, _ = dc.residuals(StubNet(), np.arange(8))
        expected = 2.0 * cloud.coords[:8, 0:1]
        assert np.allclose(residuals["sensors_u"].numpy(), expected)

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError):
            DataConstraint("bad", self.make_cloud(), ("u",),
                           {"w": np.zeros(40)}, batch_size=8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DataConstraint("bad", self.make_cloud(), ("u", "v"),
                           {"u": np.zeros(7)}, batch_size=8)


class TestInverseTraining:
    def test_recover_viscosity_from_data(self):
        """Joint (net, nu) training on Burgers data generated at nu*=0.25."""
        true_nu = 0.25
        amplitude, speed = 0.5, 0.5
        rng = np.random.default_rng(1)

        coords = rng.uniform(-1.0, 1.0, (1200, 2))   # (x, t)
        cloud = PointCloud(coords=coords)
        from repro.pde import burgers_travelling_wave
        data = burgers_travelling_wave(coords[:, 0], coords[:, 1], true_nu,
                                       amplitude=amplitude, speed=speed)

        coeff = TrainableCoefficient(0.05, name="nu")
        pde = Burgers1D(nu=coeff)
        interior = InteriorConstraint("interior", cloud, pde, batch_size=96,
                                      sdf_weighting=False,
                                      spatial_names=("x", "t"))
        sensors = DataConstraint("sensors", cloud, ("u",), {"u": data},
                                 batch_size=96, weight=20.0,
                                 spatial_names=("x", "t"))

        net = FullyConnected(2, 1, width=24, depth=2, activation="tanh",
                             rng=np.random.default_rng(2))
        params = net.parameters() + [coeff.raw]
        trainer = Trainer(net, [interior, sensors],
                          Adam(params, lr=5e-3),
                          extra_modules={"nu": coeff}, seed=0)
        trainer.train(700, validate_every=10_000, record_every=200)

        assert np.isclose(coeff.value(), true_nu, rtol=0.25), \
            f"recovered nu={coeff.value():.3f}, true {true_nu}"
