"""Layers: linear maps and activations.

The paper's networks are fully connected, width 512 × depth 6, with SiLU
activations (eq. 2).

Each activation carries its first and second derivative beside it, so
:class:`repro.nn.FullyConnected` can push forward Taylor jets (see
``docs/autodiff.md``).
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from .init import xavier_uniform
from .module import Module, Parameter

__all__ = ["Linear", "ActivationRule", "ACTIVATIONS"]


class ActivationRule:
    """An elementwise activation ``y = f(z)`` defined by its jet.

    ``jet(z)`` returns ``(y, first, second)``: the value, a thunk
    ``first()`` giving ``f'(z)``, and ``second(d1)`` giving ``f''(z)`` from
    ``d1 = first()``.  The derivatives are tensors built from autodiff ops,
    so they stay differentiable, recordable and replayable, or ``None`` when
    identically one (``first``) or zero (``second``).  The thunks share the
    value pass's intermediates and build nothing until called.  Calling the
    rule returns ``y`` alone.
    """

    def __init__(self, jet):
        self.jet = jet

    def __call__(self, x):
        return self.jet(x)[0]


def _silu(z):
    s = ad.sigmoid(z)
    y = z * s                      # the ops of ``ad.silu``: the same bits

    def second(d1):
        return s * (1.0 - s) * (2.0 + z * (1.0 - 2.0 * s))
    return y, lambda: s + y * (1.0 - s), second


def _tanh(z):
    y = ad.tanh(z)
    return y, lambda: 1.0 - y * y, lambda d1: -2.0 * y * d1


def _sigmoid(z):
    y = ad.sigmoid(z)
    return y, lambda: y * (1.0 - y), lambda d1: d1 * (1.0 - 2.0 * y)


def _relu(z):
    y = ad.relu(z)

    def first():
        # relu's derivative is the 0/1 mask its backward multiplies by;
        # reading it through the op's own VJP keeps that mask a leaf whose
        # provenance the replay compiler re-derives every step
        if y._vjp is None:
            return Tensor((z.data > 0).astype(z.data.dtype))
        return y._vjp(ad.ones_like(y))[0]
    return y, first, lambda d1: None


def _sin(z):
    y = ad.sin(z)
    return y, lambda: ad.cos(z), lambda d1: -y


def _softplus(z):
    y = ad.softplus(z)
    return y, lambda: ad.sigmoid(z), lambda d1: d1 * (1.0 - d1)


def _identity(z):
    return z, lambda: None, lambda d1: None


ACTIVATIONS = {
    "silu": ActivationRule(_silu),
    "tanh": ActivationRule(_tanh),
    "sigmoid": ActivationRule(_sigmoid),
    "relu": ActivationRule(_relu),
    "sin": ActivationRule(_sin),
    "softplus": ActivationRule(_softplus),
    "identity": ActivationRule(_identity),
}


class Linear(Module):
    """Affine layer ``x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        ``numpy.random.Generator`` used for weight initialisation.
    dtype:
        Parameter dtype (default float64 for stable high-order derivatives).
    """

    def __init__(self, in_features, out_features, rng=None, dtype=np.float64):
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            xavier_uniform(rng, self.in_features, self.out_features).astype(dtype),
            name="weight")
        self.bias = Parameter(np.zeros((1, self.out_features), dtype=dtype),
                              name="bias")

    def forward(self, x):
        return x @ self.weight + self.bias
