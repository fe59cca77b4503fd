"""Built-in problem registrations: ldc, annular_ring, burgers, poisson3d,
advection_diffusion, inverse_burgers, ns3d.

Each ``build_<name>_problem`` in :mod:`repro.experiments` returns a
:class:`~repro.training.Problem` with its validator factory closed over the
config, so a :class:`~repro.api.Session` (or any caller) can materialise
validators without re-plumbing configuration.  Registration lives here, not
beside the builders, so :mod:`repro.experiments` never imports the API
layer.  The summary of each builder's docstring is the registry
description ``repro problems`` prints.
"""

from __future__ import annotations

import numpy as np

from ..experiments.advection_diffusion import build_advection_diffusion_problem
from ..experiments.annular_ring import build_ar_problem
from ..experiments.burgers import build_burgers_problem
from ..experiments.configs import (
    advection_diffusion_config, annular_ring_config, burgers_config,
    inverse_burgers_config, ldc_config, ns3d_config, poisson3d_config,
)
from ..experiments.inverse_burgers import build_inverse_burgers_problem
from ..experiments.ldc import build_ldc_problem
from ..experiments.ns3d import build_ns3d_problem
from ..experiments.poisson3d import build_poisson3d_problem
from .registry import problem_registry, register_problem

__all__ = ["build_problem"]

#: name -> (builder, config factory) for every built-in problem
_BUILTINS = {
    "ldc": (build_ldc_problem, ldc_config),
    "annular_ring": (build_ar_problem, annular_ring_config),
    "burgers": (build_burgers_problem, burgers_config),
    "poisson3d": (build_poisson3d_problem, poisson3d_config),
    "advection_diffusion": (build_advection_diffusion_problem,
                            advection_diffusion_config),
    "inverse_burgers": (build_inverse_burgers_problem,
                        inverse_burgers_config),
    "ns3d": (build_ns3d_problem, ns3d_config),
}

for _name, (_builder, _config_factory) in _BUILTINS.items():
    register_problem(_name, config_factory=_config_factory)(_builder)


def build_problem(name, config=None, n_interior=None, rng=None):
    """Build the registered problem ``name`` ready for training.

    ``config`` defaults to the problem's ``repro``-scale preset,
    ``n_interior`` to ``config.n_interior_small``, and ``rng`` to a
    generator seeded with ``config.seed``.
    """
    entry = problem_registry.get(name)
    config = config if config is not None else entry.config_factory()
    n_interior = (n_interior if n_interior is not None
                  else config.n_interior_small)
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return entry.builder(config, n_interior, rng)
