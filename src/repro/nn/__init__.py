"""Neural-network building blocks: modules, layers, optimizers, schedules."""

from .module import Module, Parameter
from .layers import Linear, ActivationRule, ACTIVATIONS
from .mlp import FullyConnected, Jet
from .optim import Optimizer, Adam
from .schedulers import ExponentialDecayLR
from .init import xavier_uniform

__all__ = [
    "Module", "Parameter",
    "Linear", "ActivationRule", "ACTIVATIONS", "FullyConnected", "Jet",
    "Optimizer", "Adam", "ExponentialDecayLR",
    "xavier_uniform",
]
