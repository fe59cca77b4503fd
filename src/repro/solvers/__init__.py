"""Classical reference solvers substituting for the paper's OpenFOAM data."""

from .acm import ACMSolver, ACMResult
from .ghia import GHIA_X, GHIA_Y, ghia_u_centerline, ghia_v_centerline
from .ldc import solve_ldc, zero_eq_viscosity_field, ldc_wall_distance
from .annulus import annulus_mask, solve_annulus, ANNULUS_DEFAULTS
from .cache import cache_dir, get_or_compute

__all__ = [
    "ACMSolver", "ACMResult",
    "GHIA_X", "GHIA_Y", "ghia_u_centerline", "ghia_v_centerline",
    "solve_ldc", "zero_eq_viscosity_field", "ldc_wall_distance",
    "annulus_mask", "solve_annulus", "ANNULUS_DEFAULTS",
    "cache_dir", "get_or_compute",
]
