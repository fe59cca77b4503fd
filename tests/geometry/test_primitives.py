"""Primitive geometry: SDFs, sampling, measures."""

import numpy as np
import pytest

from repro.geometry import (
    Channel2D, Circle, Line2D, PointCloud, Rectangle,
)

RNG = np.random.default_rng(0)


class TestRectangle:
    def setup_method(self):
        self.rect = Rectangle((0.0, 0.0), (2.0, 1.0))

    def test_sdf_signs(self):
        inside = np.array([[1.0, 0.5]])
        outside = np.array([[3.0, 0.5], [1.0, -0.2]])
        assert self.rect.sdf(inside)[0] > 0
        assert np.all(self.rect.sdf(outside) < 0)

    def test_sdf_exact_distances(self):
        assert np.isclose(self.rect.sdf(np.array([[1.0, 0.5]]))[0], 0.5)
        assert np.isclose(self.rect.sdf(np.array([[1.0, 0.9]]))[0], 0.1)
        assert np.isclose(self.rect.sdf(np.array([[-1.0, 0.5]]))[0], -1.0)
        # outside a corner: euclidean distance
        assert np.isclose(self.rect.sdf(np.array([[3.0, 2.0]]))[0],
                          -np.sqrt(1.0 + 1.0))

    def test_interior_points_inside(self):
        cloud = self.rect.sample_interior(500, RNG)
        assert len(cloud) == 500
        assert np.all(self.rect.contains(cloud.coords))
        assert np.all(cloud.sdf > 0)

    def test_interior_weights_sum_to_area(self):
        cloud = self.rect.sample_interior(2000, RNG)
        assert np.isclose(cloud.weights.sum(), self.rect.area, rtol=0.1)

    def test_boundary_points_on_walls(self):
        cloud = self.rect.sample_boundary(400, RNG)
        assert np.allclose(np.abs(self.rect.sdf(cloud.coords)), 0.0, atol=1e-12)

    def test_boundary_normals_unit_outward(self):
        cloud = self.rect.sample_boundary(400, RNG)
        norms = np.linalg.norm(cloud.normals, axis=1)
        assert np.allclose(norms, 1.0)
        # step outward along normal: sdf decreases
        stepped = cloud.coords + 1e-3 * cloud.normals
        assert np.all(self.rect.sdf(stepped) < 0)

    def test_boundary_weights_sum_to_perimeter(self):
        cloud = self.rect.sample_boundary(100, RNG)
        assert np.isclose(cloud.weights.sum(), 6.0)

    def test_all_four_sides_sampled(self):
        cloud = self.rect.sample_boundary(2000, RNG)
        coords = cloud.coords
        assert (coords[:, 1] < 1e-9).any()          # bottom
        assert (coords[:, 1] > 1.0 - 1e-9).any()    # top
        assert (coords[:, 0] < 1e-9).any()          # left
        assert (coords[:, 0] > 2.0 - 1e-9).any()    # right

    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Rectangle((1.0, 1.0), (0.0, 2.0))


class TestChannel2D:
    def setup_method(self):
        self.channel = Channel2D((-2.0, -0.5), (2.0, 0.5))

    def test_sdf_is_wall_distance_only(self):
        # x-position must not affect the channel SDF (open ends)
        pts = np.array([[0.0, 0.0], [-1.9, 0.0], [5.0, 0.0]])
        assert np.allclose(self.channel.sdf(pts), 0.5)

    def test_boundary_only_top_bottom(self):
        cloud = self.channel.sample_boundary(500, RNG)
        assert np.all(np.isin(cloud.coords[:, 1], [-0.5, 0.5]))

    def test_boundary_length_excludes_ends(self):
        assert np.isclose(self.channel.boundary_length, 8.0)

    def test_normals_point_away_from_centerline(self):
        cloud = self.channel.sample_boundary(200, RNG)
        assert np.all(cloud.normals[:, 1] * cloud.coords[:, 1] > 0)


class TestCircle:
    def setup_method(self):
        self.circle = Circle((1.0, -1.0), 2.0)

    def test_sdf_center_is_radius(self):
        assert np.isclose(self.circle.sdf(np.array([[1.0, -1.0]]))[0], 2.0)

    def test_sdf_signs(self):
        assert self.circle.sdf(np.array([[2.0, -1.0]]))[0] > 0
        assert self.circle.sdf(np.array([[4.0, -1.0]]))[0] < 0

    def test_boundary_on_circle(self):
        cloud = self.circle.sample_boundary(300, RNG)
        radii = np.linalg.norm(cloud.coords - np.array([1.0, -1.0]), axis=1)
        assert np.allclose(radii, 2.0)

    def test_boundary_normals_radial(self):
        cloud = self.circle.sample_boundary(300, RNG)
        radial = (cloud.coords - np.array([1.0, -1.0])) / 2.0
        assert np.allclose(cloud.normals, radial)

    def test_interior_inside(self):
        cloud = self.circle.sample_interior(500, RNG)
        assert np.all(np.linalg.norm(cloud.coords - np.array([1.0, -1.0]),
                                     axis=1) < 2.0)

    def test_area_estimate(self):
        assert np.isclose(self.circle.approx_area(RNG), self.circle.area,
                          rtol=0.05)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Circle((0, 0), 0.0)


class TestLine2D:
    def test_boundary_on_segment(self):
        line = Line2D((0.0, 0.0), (0.0, 2.0))
        cloud = line.sample_boundary(100, RNG)
        assert np.allclose(cloud.coords[:, 0], 0.0)
        assert np.all((cloud.coords[:, 1] >= 0) & (cloud.coords[:, 1] <= 2))

    def test_normal_direction(self):
        line = Line2D((0.0, 0.0), (0.0, 2.0), normal_side="left")
        assert np.allclose(line.normal, [-1.0, 0.0])
        right = Line2D((0.0, 0.0), (0.0, 2.0), normal_side="right")
        assert np.allclose(right.normal, [1.0, 0.0])

    def test_no_interior(self):
        line = Line2D((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(TypeError):
            line.sample_interior(10)

    def test_weights_sum_to_length(self):
        line = Line2D((0.0, 0.0), (3.0, 4.0))
        cloud = line.sample_boundary(50, RNG)
        assert np.isclose(cloud.weights.sum(), 5.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Line2D((1.0, 1.0), (1.0, 1.0))


class TestPointCloud:
    def test_features_concatenate_params(self):
        cloud = PointCloud(coords=np.zeros((4, 2)), params=np.ones((4, 1)),
                           param_names=("r",))
        assert cloud.features().shape == (4, 3)
        assert np.allclose(cloud.features()[:, 2], 1.0)

    def test_features_without_params(self):
        cloud = PointCloud(coords=np.zeros((4, 2)))
        assert cloud.features().shape == (4, 2)

    def test_subset_preserves_fields(self):
        cloud = PointCloud(coords=RNG.normal(size=(10, 2)),
                           sdf=RNG.random(10), weights=np.ones(10))
        sub = cloud.subset(np.arange(3))
        assert len(sub) == 3 and sub.sdf.shape == (3, 1)

    def test_filter_by_predicate(self):
        cloud = PointCloud(coords=np.array([[0.0, 0.0], [1.0, 1.0]]))
        kept = cloud.filter(lambda c: c[:, 0] > 0.5)
        assert len(kept) == 1

    def test_concatenate_checks_param_names(self):
        a = PointCloud(coords=np.zeros((2, 2)), param_names=())
        b = PointCloud(coords=np.zeros((2, 2)), params=np.ones((2, 1)),
                       param_names=("r",))
        with pytest.raises(ValueError):
            PointCloud.concatenate([a, b])

    def test_concatenate_rejects_partial_fields(self):
        a = PointCloud(coords=np.zeros((2, 2)), sdf=np.ones(2))
        b = PointCloud(coords=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PointCloud.concatenate([a, b])
