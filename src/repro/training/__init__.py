"""PINN training: constraints, trainer, validators, history records."""

from .constraints import (Constraint, InteriorConstraint,
                          BoundaryConstraint, DataConstraint)
from .history import History
from .problem import Problem
from .validators import CoefficientValidator, PointwiseValidator, relative_l2
from .trainer import Trainer
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Constraint", "InteriorConstraint", "BoundaryConstraint",
    "DataConstraint",
    "History", "Problem",
    "CoefficientValidator", "PointwiseValidator", "relative_l2",
    "Trainer",
    "save_checkpoint", "load_checkpoint",
]
