"""3-D Navier-Stokes problem builder (outputs ``u, v, w, p``).

The third velocity component ``w`` is the ROADMAP workload the trainer's
dimension-agnostic probes were built for: gradient-norm probes sweep
``(u, v, w)`` over ``(x, y, z)`` with no problem-specific wiring.

Validation uses the manufactured **Beltrami (ABC) flow**

    u = A sin(k z) + C cos(k y)
    v = B sin(k x) + A cos(k z)
    w = C sin(k y) + B cos(k x)
    p = -rho/2 (u^2 + v^2 + w^2)

which is divergence-free with vorticity ``curl U = k U``, so the convection
term is a pure gradient absorbed by ``p`` — an exact steady *Euler*
solution.  Its viscous defect ``-nu lap U = nu k^2 U`` is supplied back as
the body force ``f = nu k^2 U`` through ``Constraint.field_sources``
(fields ``f_u``/``f_v``/``f_w``), making the flow an exact solution of the
forced Navier-Stokes system at any viscosity.  Dirichlet walls carry the
exact velocity *and* pressure (pinning the pressure gauge, which momentum
alone leaves free).
"""

from __future__ import annotations

import numpy as np

from ..geometry import Box
from ..pde import NavierStokes3D
from ..training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Problem,
)

__all__ = ["build_ns3d_problem", "ns3d_exact", "ns3d_validator",
           "OUTPUT_NAMES", "SPATIAL_NAMES"]

OUTPUT_NAMES = ("u", "v", "w", "p")
SPATIAL_NAMES = ("x", "y", "z")


def _exact_velocity(config, var, x, y, z):
    """One velocity component of the Beltrami field (cheap: 2 trig arrays).

    Per-batch sources/targets that need a single component call this
    instead of :func:`ns3d_exact`, which evaluates all four fields.
    """
    a, b, c = config.amplitudes
    k = config.wavenumber
    if var == "u":
        return a * np.sin(k * np.asarray(z)) + c * np.cos(k * np.asarray(y))
    if var == "v":
        return b * np.sin(k * np.asarray(x)) + a * np.cos(k * np.asarray(z))
    return c * np.sin(k * np.asarray(y)) + b * np.cos(k * np.asarray(x))


def ns3d_exact(config, x, y, z):
    """The Beltrami field as ``{"u": ..., "v": ..., "w": ..., "p": ...}``."""
    u = _exact_velocity(config, "u", x, y, z)
    v = _exact_velocity(config, "v", x, y, z)
    w = _exact_velocity(config, "w", x, y, z)
    p = -0.5 * (u ** 2 + v ** 2 + w ** 2)
    return {"u": u, "v": v, "w": w, "p": p}


def ns3d_validator(config, rng):
    """Pointwise validator against the manufactured Beltrami solution."""
    points = rng.uniform(0.0, 1.0, (config.n_validation, 3))
    exact = ns3d_exact(config, points[:, 0], points[:, 1], points[:, 2])
    return PointwiseValidator("ns3d", points, exact, OUTPUT_NAMES,
                              spatial_names=SPATIAL_NAMES)


def _forcing_sources(config):
    """``f = nu k^2 U`` per momentum component, via ``field_sources``."""
    factor = config.nu * config.wavenumber ** 2

    def component(var):
        def source(coords, params):
            return factor * _exact_velocity(config, var, coords[:, 0],
                                            coords[:, 1], coords[:, 2])
        return source

    return {"f_u": component("u"), "f_v": component("v"),
            "f_w": component("w")}


def build_ns3d_problem(config, n_interior, rng):
    """3-D Navier-Stokes with a third velocity output w, validated against
    the manufactured Beltrami flow.

    One 3-D Navier-Stokes run: the forced interior cloud and walls carrying
    the exact velocity and pressure.
    """
    cube = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    interior = cube.sample_interior(n_interior, rng)
    boundary = cube.sample_boundary(config.n_boundary, rng)

    def wall_data(var):
        def target(coords, params):
            x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
            if var == "p":
                return ns3d_exact(config, x, y, z)["p"]
            return _exact_velocity(config, var, x, y, z)
        return target

    constraints = [
        InteriorConstraint("interior", interior, NavierStokes3D(config.nu),
                           batch_size=0, sdf_weighting=False,
                           spatial_names=SPATIAL_NAMES,
                           field_sources=_forcing_sources(config)),
        BoundaryConstraint("walls", boundary, OUTPUT_NAMES,
                           {var: wall_data(var) for var in OUTPUT_NAMES},
                           batch_size=0, weight=config.boundary_weight,
                           spatial_names=SPATIAL_NAMES),
    ]
    return Problem(
        "ns3d", constraints, interior, OUTPUT_NAMES, SPATIAL_NAMES,
        validator_factory=lambda vrng: [ns3d_validator(config, vrng)])
