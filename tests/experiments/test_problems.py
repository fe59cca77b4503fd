"""Problem builders and (smoke-scale) runner integration."""

import numpy as np
import pytest

from repro.experiments import (
    annular_ring_config, annular_ring_geometry, ar_methods, build_ar_problem,
    build_ldc_problem, ldc_config, ldc_methods,
)
from repro.experiments.annular_ring import inlet_profile

RNG = np.random.default_rng(0)


class TestLDCProblem:
    def setup_method(self):
        self.config = ldc_config("smoke")
        self.problem = build_ldc_problem(self.config, 500,
                                         np.random.default_rng(1))

    def test_constraint_names(self):
        names = [c.name for c in self.problem.constraints]
        assert names == ["interior", "lid", "noslip"]

    def test_interior_cloud_size_and_sdf(self):
        cloud = self.problem.interior_cloud
        assert len(cloud) == 500
        assert cloud.sdf is not None and np.all(cloud.sdf > 0)

    def test_lid_points_on_top_wall(self):
        lid = next(c for c in self.problem.constraints if c.name == "lid")
        assert np.allclose(lid.cloud.coords[:, 1], 1.0)

    def test_noslip_excludes_lid(self):
        noslip = next(c for c in self.problem.constraints
                      if c.name == "noslip")
        assert np.all(noslip.cloud.coords[:, 1] < 1.0)

    def test_outputs(self):
        assert self.problem.output_names == ("u", "v", "p")


class TestARProblem:
    def setup_method(self):
        self.config = annular_ring_config("smoke")
        self.problem = build_ar_problem(self.config, 600,
                                        np.random.default_rng(2))

    def test_constraint_names(self):
        names = [c.name for c in self.problem.constraints]
        assert names == ["interior", "walls", "inlet", "outlet"]

    def test_interior_has_param_column(self):
        cloud = self.problem.interior_cloud
        assert cloud.params.shape == (600, 1)
        assert cloud.param_names == ("r_inner",)
        lo, hi = self.config.r_inner_range
        assert np.all((cloud.params >= lo) & (cloud.params <= hi))

    def test_interior_respects_per_point_radius(self):
        cloud = self.problem.interior_cloud
        radii = np.linalg.norm(cloud.coords, axis=1)
        assert np.all(radii >= cloud.params[:, 0] - 1e-9)

    def test_inlet_constraint_targets_parabolic_profile(self):
        inlet = next(c for c in self.problem.constraints
                     if c.name == "inlet")
        assert np.allclose(inlet.cloud.coords[:, 0], -5.0)
        target = inlet.targets["u"]
        ys = np.array([0.0, 0.5, 1.0])
        coords = np.stack([np.full(3, -5.0), ys], axis=1)
        values = target(coords, None)
        assert np.isclose(values[0], 1.5)
        assert np.isclose(values[1], 1.5 * 0.75)
        assert np.isclose(values[2], 0.0)

    def test_outlet_pins_pressure(self):
        outlet = next(c for c in self.problem.constraints
                      if c.name == "outlet")
        assert outlet.targets == {"p": 0.0}

    def test_geometry_factory(self):
        geom = annular_ring_geometry(1.0)
        pts = np.array([[0.0, 1.5], [0.0, 0.0], [-4.0, 0.0], [0.0, 2.5]])
        inside = geom.contains(pts)
        assert inside[0] and inside[2]
        assert not inside[1] and not inside[3]

    def test_inlet_profile_helper(self):
        assert inlet_profile(np.array([2.0]), 1.5)[0] == 0.0


class TestRunnerSmoke:
    def test_method_specs_cover_table1(self):
        config = ldc_config("smoke")
        labels = [m.label for m in ldc_methods(config)]
        assert labels == ["U32", "U64", "MIS32", "SGM32"]

    def test_method_specs_cover_table2(self):
        config = annular_ring_config("smoke")
        labels = [m.label for m in ar_methods(config,
                                              include_plain_sgm=True)]
        assert labels == ["U32", "U64", "MIS32", "SGM32", "SGM-S32"]

    def test_run_single_method_smoke(self):
        from repro.experiments import run_suite
        config = ldc_config("smoke")
        method = ldc_methods(config)[0]
        suite = run_suite("ldc", [method], backend="serial", config=config,
                          steps=12)
        (result,) = suite
        assert len(result.history.steps) >= 2
        assert np.isfinite(result.history.losses[-1])
        assert result.net.num_parameters() > 0

    def test_unknown_sampler_kind_rejected(self):
        from repro.api import make_sampler
        from repro.geometry import PointCloud
        cloud = PointCloud(coords=np.zeros((10, 2)))
        with pytest.raises(KeyError, match="bogus"):
            make_sampler("bogus", ldc_config("smoke"), cloud, 0)
