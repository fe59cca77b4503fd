"""PDE residual definitions built on the autodiff engine."""

from .fields import Fields
from .base import PDE
from .navier_stokes import NavierStokes2D, NavierStokes3D
from .zero_eq import ZeroEquationTurbulence
from .poisson import Poisson2D
from .poisson3d import Poisson3D
from .burgers import Burgers1D, burgers_travelling_wave
from .inverse import TrainableCoefficient
from .advection_diffusion import AdvectionDiffusion2D

__all__ = [
    "Fields", "PDE", "NavierStokes2D", "NavierStokes3D",
    "ZeroEquationTurbulence",
    "Poisson2D", "Poisson3D", "Burgers1D", "burgers_travelling_wave",
    "TrainableCoefficient", "AdvectionDiffusion2D",
]
