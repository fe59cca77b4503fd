"""Viscous-Burgers problem builder (1 space + 1 time dimension).

The travelling-wave solution concentrates all residual mass in a thin
moving front — exactly the regime cluster-level importance sampling is
built for.  The space-time "boundary" is the ``t = 0`` initial slice plus
the ``x = ±1`` walls with the exact solution as Dirichlet data; the
``t = 1`` face is left unconstrained.
"""

from __future__ import annotations

from ..geometry import Rectangle
from ..pde import Burgers1D, burgers_travelling_wave
from ..training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Problem,
)

__all__ = ["build_burgers_problem", "burgers_exact", "burgers_validator",
           "OUTPUT_NAMES", "SPATIAL_NAMES"]

OUTPUT_NAMES = ("u",)
SPATIAL_NAMES = ("x", "t")

#: the (x, t) space-time domain: x in [-1, 1], t in [0, 1]
DOMAIN = ((-1.0, 0.0), (1.0, 1.0))


def burgers_exact(config, x, t):
    """Exact travelling-wave solution at this config's parameters."""
    return burgers_travelling_wave(x, t, config.nu,
                                   amplitude=config.amplitude,
                                   speed=config.speed)


def burgers_validator(config, rng):
    """Pointwise validator against the exact solution."""
    lo, hi = DOMAIN
    points = rng.uniform(lo, hi, (config.n_validation, 2))
    exact = burgers_exact(config, points[:, 0], points[:, 1])
    return PointwiseValidator("burgers", points, {"u": exact},
                              OUTPUT_NAMES, spatial_names=SPATIAL_NAMES)


def build_burgers_problem(config, n_interior, rng):
    """Viscous Burgers travelling front over (x, t), validated against the
    exact solution.

    One Burgers-front run: the space-time interior plus the initial slice
    and side walls carrying the exact solution.
    """
    domain = Rectangle(*DOMAIN)
    interior = domain.sample_interior(n_interior, rng)
    boundary = domain.sample_boundary(config.n_boundary, rng)
    # drop the t = 1 face: the front's future is predicted, not prescribed
    boundary = boundary.filter(lambda c: c[:, 1] < 1.0 - 1e-9)

    def exact_data(coords, params):
        return burgers_exact(config, coords[:, 0], coords[:, 1])

    constraints = [
        InteriorConstraint("interior", interior, Burgers1D(nu=config.nu),
                           batch_size=0, sdf_weighting=False,
                           spatial_names=SPATIAL_NAMES),
        BoundaryConstraint("data", boundary, OUTPUT_NAMES,
                           {"u": exact_data},
                           batch_size=0, weight=config.boundary_weight,
                           spatial_names=SPATIAL_NAMES),
    ]
    return Problem(
        "burgers", constraints, interior, OUTPUT_NAMES, SPATIAL_NAMES,
        validator_factory=lambda vrng: [burgers_validator(config, vrng)])
