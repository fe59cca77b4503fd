"""LDC_zeroEq problem builder (paper §4.1).

Assembles geometry, constraints, and the validator for the lid-driven cavity
with zero-equation turbulence.  The reference solution comes from
:func:`repro.solvers.solve_ldc` (cached), replacing the paper's OpenFOAM
fields; the validated variables are ``u``, ``v``, and ``nu`` exactly as in
Table 1.
"""

from __future__ import annotations

from ..geometry import Rectangle
from ..pde import NavierStokes2D, ZeroEquationTurbulence
from ..solvers import get_or_compute, solve_ldc
from ..training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Problem,
)
from ..utils import bilinear_interpolate

__all__ = ["build_ldc_problem", "ldc_reference", "ldc_validator"]

OUTPUT_NAMES = ("u", "v", "p")


def ldc_reference(config):
    """Cached reference LDC fields (u, v, nu_t on the solver grid)."""
    key = (f"ldc_re{config.reynolds:g}_res{config.reference_resolution}"
           f"_turb{int(config.turbulent)}")

    def builder():
        result = solve_ldc(reynolds=config.reynolds,
                           resolution=config.reference_resolution,
                           lid_velocity=config.lid_velocity,
                           turbulent=config.turbulent)
        return {"xs": result.xs, "ys": result.ys, "u": result.u,
                "v": result.v, "p": result.p, "nu_t": result.nu_t}

    return get_or_compute(key, builder)


def ldc_validator(config, rng):
    """Pointwise validator over interior validation points."""
    reference = ldc_reference(config)
    geometry = Rectangle((0.0, 0.0), (1.0, 1.0))
    cloud = geometry.sample_interior(config.n_validation, rng)
    points = cloud.coords

    def interp(field):
        return bilinear_interpolate(reference["xs"], reference["ys"],
                                    reference[field], points)

    references = {"u": interp("u"), "v": interp("v")}
    derived = {}
    if config.turbulent:
        closure = ZeroEquationTurbulence(max_distance=0.5)
        references["nu"] = interp("nu_t")
        derived["nu"] = closure.nu_t
    return PointwiseValidator("ldc", points, references, OUTPUT_NAMES,
                              derived=derived, sdf=cloud.sdf)


def build_ldc_problem(config, n_interior, rng):
    """Lid-driven cavity, zero-equation turbulence (paper §4.1, Table 1).

    One LDC training run: interior, lid and no-slip clouds, validated
    against the cached reference solve.
    """
    geometry = Rectangle((0.0, 0.0), (1.0, 1.0))
    interior = geometry.sample_interior(n_interior, rng)
    boundary = geometry.sample_boundary(config.n_boundary, rng)
    eps = 1e-9
    lid = boundary.filter(lambda c: c[:, 1] > 1.0 - eps)
    walls = boundary.filter(lambda c: c[:, 1] <= 1.0 - eps)

    nu = config.lid_velocity / config.reynolds
    turbulence = (ZeroEquationTurbulence(max_distance=0.5)
                  if config.turbulent else None)
    pde = NavierStokes2D(nu=nu, turbulence=turbulence,
                         full_diffusion=config.full_diffusion)

    constraints = [
        InteriorConstraint("interior", interior, pde,
                           batch_size=0,  # set by the runner per method
                           sdf_weighting=True),
        BoundaryConstraint("lid", lid, OUTPUT_NAMES,
                           {"u": config.lid_velocity, "v": 0.0},
                           batch_size=0, weight=config.boundary_weight),
        BoundaryConstraint("noslip", walls, OUTPUT_NAMES,
                           {"u": 0.0, "v": 0.0},
                           batch_size=0, weight=config.boundary_weight),
    ]
    return Problem(
        "ldc", constraints, interior, OUTPUT_NAMES, ("x", "y"),
        validator_factory=lambda vrng: [ldc_validator(config, vrng)])
