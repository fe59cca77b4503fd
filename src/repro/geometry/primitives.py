"""2-D geometric primitives: rectangle, channel, circle, annulus, line."""

from __future__ import annotations

import numpy as np

from .base import Geometry
from .pointcloud import PointCloud

__all__ = ["Rectangle", "Channel2D", "Circle", "Line2D"]


class Rectangle(Geometry):
    """Axis-aligned rectangle with all four sides as boundary."""

    def __init__(self, corner_min, corner_max):
        self.lo = np.asarray(corner_min, dtype=np.float64)
        self.hi = np.asarray(corner_max, dtype=np.float64)
        if np.any(self.hi <= self.lo):
            raise ValueError("corner_max must exceed corner_min componentwise")

    @property
    def bounds(self):
        return tuple(self.lo), tuple(self.hi)

    @property
    def area(self):
        """Exact area."""
        return float(np.prod(self.hi - self.lo))

    @property
    def boundary_length(self):
        """Exact perimeter."""
        w, h = self.hi - self.lo
        return 2.0 * float(w + h)

    def sdf(self, points):
        points = np.atleast_2d(points)
        # distance to box: negative of the standard outside-positive box SDF
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        q = np.abs(points - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(np.max(q, axis=1), 0.0)
        return -(outside + inside)

    def sample_boundary(self, n, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        w, h = self.hi - self.lo
        perimeter = 2.0 * (w + h)
        t = rng.uniform(0.0, perimeter, size=n)
        coords = np.empty((n, 2))
        normals = np.empty((n, 2))
        # walk the perimeter counter-clockwise: bottom, right, top, left
        edges = np.array([w, h, w, h])
        starts = np.concatenate([[0.0], np.cumsum(edges)[:-1]])
        side = np.searchsorted(np.cumsum(edges), t, side="right")
        local = t - starts[side]
        for s, (axis_coords, normal) in enumerate([
                (lambda u: np.stack([self.lo[0] + u, np.full_like(u, self.lo[1])], 1), [0.0, -1.0]),
                (lambda u: np.stack([np.full_like(u, self.hi[0]), self.lo[1] + u], 1), [1.0, 0.0]),
                (lambda u: np.stack([self.hi[0] - u, np.full_like(u, self.hi[1])], 1), [0.0, 1.0]),
                (lambda u: np.stack([np.full_like(u, self.lo[0]), self.hi[1] - u], 1), [-1.0, 0.0])]):
            mask = side == s
            coords[mask] = axis_coords(local[mask])
            normals[mask] = normal
        weights = np.full((n, 1), perimeter / n)
        return PointCloud(coords=coords, normals=normals, weights=weights)


class Channel2D(Rectangle):
    """Rectangle whose only walls are the top and bottom sides.

    Matches Modulus' ``Channel2D``: the open ends do not contribute to the
    boundary, and the SDF measures distance to the walls only (so the
    zero-equation wall distance ignores the inlet/outlet planes).
    """

    @property
    def boundary_length(self):
        w, _ = self.hi - self.lo
        return 2.0 * float(w)

    def sdf(self, points):
        points = np.atleast_2d(points)
        below = points[:, 1] - self.lo[1]
        above = self.hi[1] - points[:, 1]
        return np.minimum(below, above)

    def sample_boundary(self, n, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        xs = rng.uniform(self.lo[0], self.hi[0], size=n)
        top = rng.random(n) < 0.5
        ys = np.where(top, self.hi[1], self.lo[1])
        normals = np.stack([np.zeros(n), np.where(top, 1.0, -1.0)], axis=1)
        coords = np.stack([xs, ys], axis=1)
        weights = np.full((n, 1), self.boundary_length / n)
        return PointCloud(coords=coords, normals=normals, weights=weights)


class Circle(Geometry):
    """Disk of given center and radius (boundary = full circle)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def bounds(self):
        r = self.radius
        return tuple(self.center - r), tuple(self.center + r)

    @property
    def area(self):
        """Exact area."""
        return float(np.pi * self.radius ** 2)

    @property
    def boundary_length(self):
        """Exact circumference."""
        return float(2.0 * np.pi * self.radius)

    def sdf(self, points):
        points = np.atleast_2d(points)
        return self.radius - np.linalg.norm(points - self.center, axis=1)

    def sample_boundary(self, n, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        coords = self.center + self.radius * normals
        weights = np.full((n, 1), self.boundary_length / n)
        return PointCloud(coords=coords, normals=normals, weights=weights)


class Line2D(Geometry):
    """Straight segment used for inlets/outlets (boundary-only geometry)."""

    def __init__(self, start, end, normal_side="left"):
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        direction = self.end - self.start
        self.length = float(np.linalg.norm(direction))
        if self.length == 0:
            raise ValueError("degenerate segment")
        tangent = direction / self.length
        normal = np.array([-tangent[1], tangent[0]])
        if normal_side == "right":
            normal = -normal
        self.normal = normal

    @property
    def bounds(self):
        lo = np.minimum(self.start, self.end)
        hi = np.maximum(self.start, self.end)
        return tuple(lo), tuple(hi)

    @property
    def boundary_length(self):
        """Segment length."""
        return self.length

    def sdf(self, points):
        """Unsigned distance, negated (a segment has no interior)."""
        points = np.atleast_2d(points)
        direction = (self.end - self.start) / self.length
        rel = points - self.start
        t = np.clip(rel @ direction, 0.0, self.length)
        nearest = self.start + t[:, None] * direction
        return -np.linalg.norm(points - nearest, axis=1)

    def sample_interior(self, n, rng=None):
        raise TypeError("Line2D has no interior; use sample_boundary")

    def sample_boundary(self, n, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        t = rng.uniform(0.0, 1.0, size=(n, 1))
        coords = self.start + t * (self.end - self.start)
        normals = np.tile(self.normal, (n, 1))
        weights = np.full((n, 1), self.length / n)
        return PointCloud(coords=coords, normals=normals, weights=weights)
