"""Parameterized annular-ring problem builder (paper §4.2).

Geometry: a 2-m-wide channel opening into a radius-2 chamber with a
concentric inner cylinder whose radius ``r_i`` is the geometry parameter
(``r_i ∈ [0.75, 1.1]``).  The network takes ``(x, y, r_i)`` and validation
compares against the reference solver at ``r_i ∈ {1.0, 0.875, 0.75}``,
averaged — exactly the protocol of Table 2 / Figure 3.
"""

from __future__ import annotations

import numpy as np

from ..geometry import (
    Channel2D, Circle, Line2D, ParamSpace, ParameterizedGeometry,
)
from ..pde import NavierStokes2D
from ..solvers import ANNULUS_DEFAULTS, get_or_compute, solve_annulus
from ..training import (
    BoundaryConstraint, InteriorConstraint, PointwiseValidator, Problem,
)
from ..utils import bilinear_interpolate

__all__ = ["annular_ring_geometry", "build_ar_problem", "ar_validators",
           "ar_reference", "PARAM_NAMES"]

OUTPUT_NAMES = ("u", "v", "p")
PARAM_NAMES = ("r_inner",)
_CFG = ANNULUS_DEFAULTS


def annular_ring_geometry(r_inner):
    """Concrete channel + ring geometry for a given inner radius."""
    channel = Channel2D((_CFG["x_min"], -_CFG["channel_half_width"]),
                        (_CFG["x_max"], _CFG["channel_half_width"]))
    chamber = Circle((0.0, 0.0), _CFG["outer_radius"])
    hole = Circle((0.0, 0.0), float(r_inner))
    return (channel + chamber) - hole


def _geometry_family(config):
    space = ParamSpace({"r_inner": config.r_inner_range})
    return ParameterizedGeometry(
        lambda p: annular_ring_geometry(p["r_inner"]), space,
        draws=config.param_draws)


def _attach_params(cloud, space, rng):
    """Give a parameter-independent cloud random parameter columns."""
    cloud.params = space.sample(len(cloud), rng)
    cloud.param_names = space.names
    return cloud


def inlet_profile(y, peak):
    """Parabolic inlet ``u(y)`` with the given peak velocity."""
    half = _CFG["channel_half_width"]
    return peak * np.maximum(0.0, 1.0 - (y / half) ** 2)


def ar_reference(config, r_inner):
    """Cached reference annulus fields for one inner radius."""
    key = (f"ar_r{r_inner:g}_nx{config.reference_nx}_ny{config.reference_ny}"
           f"_nu{config.nu:g}")

    def builder():
        result = solve_annulus(inner_radius=r_inner, nx=config.reference_nx,
                               ny=config.reference_ny, nu=config.nu,
                               inlet_peak_velocity=config.inlet_peak_velocity)
        return {"xs": result.xs, "ys": result.ys, "u": result.u,
                "v": result.v, "p": result.p,
                "mask": result.mask.astype(np.float64)}

    return get_or_compute(key, builder)


def ar_validators(config, rng):
    """One validator per validation radius (errors averaged by the trainer)."""
    validators = []
    for r_inner in config.validation_radii:
        reference = ar_reference(config, r_inner)
        geometry = annular_ring_geometry(r_inner)
        cloud = geometry.sample_interior(config.n_validation, rng)
        # keep points away from the staircase mask edge of the reference
        dx = reference["xs"][1] - reference["xs"][0]
        keep = cloud.sdf.ravel() > 2.0 * dx
        points = cloud.coords[keep]

        def interp(name, pts=points, ref=reference):
            return bilinear_interpolate(ref["xs"], ref["ys"], ref[name], pts)

        features = np.concatenate(
            [points, np.full((len(points), 1), r_inner)], axis=1)
        validators.append(PointwiseValidator(
            f"ar_r{r_inner:g}", features,
            {"u": interp("u"), "v": interp("v"), "p": interp("p")},
            OUTPUT_NAMES, param_names=PARAM_NAMES))
    return validators


def build_ar_problem(config, n_interior, rng):
    """Parameterized annular ring, r_inner in [0.75, 1.1] (paper §4.2,
    Table 2).

    One annular-ring run: wall, inlet and outlet clouds carrying the
    ``r_inner`` parameter column, validated at each validation radius.
    """
    family = _geometry_family(config)
    space = family.param_space
    interior = family.sample_interior(n_interior, rng)
    walls = family.sample_boundary(config.n_boundary, rng)

    half = _CFG["channel_half_width"]
    inlet_line = Line2D((_CFG["x_min"], -half), (_CFG["x_min"], half),
                        normal_side="left")
    outlet_line = Line2D((_CFG["x_max"], -half), (_CFG["x_max"], half),
                         normal_side="right")
    inlet = _attach_params(inlet_line.sample_boundary(
        config.n_inlet_outlet, rng), space, rng)
    outlet = _attach_params(outlet_line.sample_boundary(
        config.n_inlet_outlet, rng), space, rng)

    pde = NavierStokes2D(nu=config.nu, full_diffusion=config.full_diffusion)
    peak = config.inlet_peak_velocity

    constraints = [
        InteriorConstraint("interior", interior, pde, batch_size=0,
                           sdf_weighting=True),
        BoundaryConstraint("walls", walls, OUTPUT_NAMES,
                           {"u": 0.0, "v": 0.0},
                           batch_size=0, weight=config.boundary_weight),
        BoundaryConstraint("inlet", inlet, OUTPUT_NAMES,
                           {"u": lambda c, p: inlet_profile(c[:, 1], peak),
                            "v": 0.0},
                           batch_size=0, weight=config.boundary_weight),
        BoundaryConstraint("outlet", outlet, OUTPUT_NAMES,
                           {"p": 0.0},
                           batch_size=0, weight=config.boundary_weight),
    ]
    return Problem(
        "annular_ring", constraints, interior, OUTPUT_NAMES, ("x", "y"),
        validator_factory=lambda vrng: ar_validators(config, vrng),
        param_space=space)
