"""Neural-network building blocks: modules, layers, optimizers, schedules."""

from .module import Module, Parameter
from .layers import (
    Linear, Activation, ActivationRule, FourierEncoding, Identity, ACTIVATIONS,
)
from .mlp import FullyConnected, Jet
from .optim import Optimizer, SGD, Adam, LBFGS, clip_grad_norm
from .schedulers import ConstantLR, ExponentialDecayLR
from .init import xavier_uniform, he_normal

__all__ = [
    "Module", "Parameter",
    "Linear", "Activation", "ActivationRule", "FourierEncoding", "Identity",
    "ACTIVATIONS", "FullyConnected", "Jet",
    "Optimizer", "SGD", "Adam", "LBFGS", "clip_grad_norm",
    "ConstantLR", "ExponentialDecayLR",
    "xavier_uniform", "he_normal",
]
