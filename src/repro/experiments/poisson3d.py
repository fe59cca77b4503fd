"""3-D Poisson problem builder (the (x, y, z) path the paper's S1 mentions).

``laplace(u) = f`` in the unit cube with homogeneous Dirichlet walls,
manufactured so that ``u = sin(pi x) sin(pi y) sin(pi z)`` is exact.  The
SGM sampler clusters the 3-D interior cloud directly.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Box
from ..pde import Poisson3D
from ..training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Problem,
)

__all__ = ["build_poisson3d_problem", "poisson3d_exact",
           "poisson3d_validator", "OUTPUT_NAMES", "SPATIAL_NAMES"]

OUTPUT_NAMES = ("u",)
SPATIAL_NAMES = ("x", "y", "z")


def poisson3d_exact(x, y, z):
    """Manufactured solution ``sin(pi x) sin(pi y) sin(pi z)``."""
    return (np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z))


def _source(x, y, z):
    return -3.0 * np.pi ** 2 * poisson3d_exact(x, y, z)


def poisson3d_validator(config, rng):
    """Pointwise validator against the manufactured solution."""
    points = rng.uniform(0.0, 1.0, (config.n_validation, 3))
    exact = poisson3d_exact(points[:, 0], points[:, 1], points[:, 2])
    return PointwiseValidator("poisson3d", points, {"u": exact},
                              OUTPUT_NAMES, spatial_names=SPATIAL_NAMES)


def build_poisson3d_problem(config, n_interior, rng):
    """3-D Poisson in the unit cube, manufactured sin·sin·sin solution.

    One 3-D Poisson run: the interior cloud and homogeneous Dirichlet walls.
    """
    cube = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    interior = cube.sample_interior(n_interior, rng)
    boundary = cube.sample_boundary(config.n_boundary, rng)

    constraints = [
        InteriorConstraint("interior", interior, Poisson3D(source=_source),
                           batch_size=0, sdf_weighting=False,
                           spatial_names=SPATIAL_NAMES),
        BoundaryConstraint("walls", boundary, OUTPUT_NAMES, {"u": 0.0},
                           batch_size=0, weight=config.boundary_weight,
                           spatial_names=SPATIAL_NAMES),
    ]
    return Problem(
        "poisson3d", constraints, interior, OUTPUT_NAMES, SPATIAL_NAMES,
        validator_factory=lambda vrng: [poisson3d_validator(config, vrng)])
