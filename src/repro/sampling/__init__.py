"""Mini-batch samplers: SGM-PINN (the contribution) and its baselines."""

from .base import Sampler
from .uniform import UniformSampler
from .mis import MISSampler
from .sgm import ClusterPlan, SGMSampler
from .rar import RARSampler

__all__ = ["Sampler", "UniformSampler", "MISSampler", "ClusterPlan",
           "SGMSampler", "RARSampler"]
