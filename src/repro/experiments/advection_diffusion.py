"""Advection-diffusion problem builder (scalar transport in the unit square).

A constant prescribed velocity ``(u, v)`` advects a scalar ``T`` with
diffusivity ``alpha``.  The manufactured solution
``T = exp((u x + v y) / alpha)`` satisfies ``u T_x + v T_y = alpha lap(T)``
exactly (plug in: the advection term contributes ``(u^2 + v^2)/alpha`` per
unit ``T`` and the Laplacian the same), so Dirichlet walls carry exact data
and validation needs no reference solver.  The solution steepens toward the
outflow corner, concentrating residual mass where importance sampling pays.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Rectangle
from ..pde import AdvectionDiffusion2D
from ..training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Problem,
)

__all__ = ["build_advection_diffusion_problem", "advection_diffusion_exact",
           "advection_diffusion_validator", "OUTPUT_NAMES", "SPATIAL_NAMES"]

OUTPUT_NAMES = ("T",)
SPATIAL_NAMES = ("x", "y")


def advection_diffusion_exact(config, x, y):
    """Manufactured solution ``exp((u x + v y) / alpha)``."""
    u, v = config.velocity
    return np.exp((u * np.asarray(x) + v * np.asarray(y)) / config.alpha)


def advection_diffusion_validator(config, rng):
    """Pointwise validator against the manufactured solution."""
    points = rng.uniform(0.0, 1.0, (config.n_validation, 2))
    exact = advection_diffusion_exact(config, points[:, 0], points[:, 1])
    return PointwiseValidator("advection_diffusion", points, {"T": exact},
                              OUTPUT_NAMES, spatial_names=SPATIAL_NAMES)


def build_advection_diffusion_problem(config, n_interior, rng):
    """Scalar transport in a prescribed flow, manufactured exponential
    solution.

    One advection-diffusion run: the interior cloud with the prescribed
    velocity as field sources, and walls carrying the exact solution.
    """
    square = Rectangle((0.0, 0.0), (1.0, 1.0))
    interior = square.sample_interior(n_interior, rng)
    boundary = square.sample_boundary(config.n_boundary, rng)

    u, v = (float(c) for c in config.velocity)
    field_sources = {
        "u": lambda coords, params: np.full(len(coords), u),
        "v": lambda coords, params: np.full(len(coords), v),
    }

    def exact_data(coords, params):
        return advection_diffusion_exact(config, coords[:, 0], coords[:, 1])

    constraints = [
        InteriorConstraint("interior", interior,
                           AdvectionDiffusion2D(config.alpha),
                           batch_size=0, sdf_weighting=False,
                           spatial_names=SPATIAL_NAMES,
                           field_sources=field_sources),
        BoundaryConstraint("walls", boundary, OUTPUT_NAMES,
                           {"T": exact_data},
                           batch_size=0, weight=config.boundary_weight,
                           spatial_names=SPATIAL_NAMES),
    ]
    return Problem(
        "advection_diffusion", constraints, interior, OUTPUT_NAMES,
        SPATIAL_NAMES,
        validator_factory=lambda vrng: [
            advection_diffusion_validator(config, vrng)])
