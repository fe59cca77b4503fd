"""Public API: first-class problems, registries, and the fluent Session.

This layer replaces the dict-based experiment plumbing with three pieces:

* :class:`Problem` — one PINN workload (constraints, interior cloud, output
  names, spatial dimensions, validator factory) as a typed object;
* the problem/sampler registries — ``@register_problem`` /
  ``@register_sampler`` make new workloads and batching rules reachable
  from the CLI, the Session builder, and the table harness by name alone;
* :class:`Session` — the fluent entry point:
  ``repro.problem("ldc").sampler("sgm").train(steps=...)``.

Importing this package registers the seven built-in problems (``ldc``,
``annular_ring``, ``burgers``, ``poisson3d``, ``advection_diffusion``,
``inverse_burgers``, ``ns3d``; see :mod:`repro.api.problems`) and the
samplers (``uniform``, ``mis``, ``sgm``, ``sgm_s``).
"""

from .types import MethodSpec, RunResult
from .registry import (
    ProblemEntry, Registry, SamplerEntry, list_problems, list_samplers,
    problem_registry, register_problem, register_sampler, sampler_registry,
)
from ..training import Problem
from .samplers import make_sampler
from .problems import build_problem
from .session import Session, problem, run_problem

__all__ = [
    "MethodSpec", "RunResult",
    "Registry", "ProblemEntry", "SamplerEntry",
    "problem_registry", "sampler_registry",
    "register_problem", "register_sampler",
    "list_problems", "list_samplers",
    "Problem", "make_sampler", "build_problem",
    "Session", "problem", "run_problem",
]
