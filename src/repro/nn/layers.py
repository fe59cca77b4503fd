"""Layers: linear maps, activations, and input encodings.

The paper's networks are fully connected, width 512 × depth 6, with SiLU
activations and an optional input encoding layer ``phi_E`` (eq. 2).

Each activation carries its first and second derivative beside it, and each
encoding its coordinate derivatives, so :class:`repro.nn.FullyConnected`
can push forward Taylor jets (see ``docs/autodiff.md``).
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, concat
from .init import xavier_uniform
from .module import Module, Parameter

__all__ = ["Linear", "Activation", "ActivationRule", "FourierEncoding",
           "Identity", "ACTIVATIONS"]


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


class Activation(Module):
    """Wrap a named activation function as a module."""

    def __init__(self, name):
        if name not in ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; "
                             f"choose from {sorted(ACTIVATIONS)}")
        self.name = name
        self._fn = ACTIVATIONS[name]

    def forward(self, x):
        return self._fn(x)


class Identity(Module):
    """No-op module (used as the default input encoding)."""

    def forward(self, x):
        return x

    def jet(self, x):
        """``(value, first, second)`` for forward jets.

        ``first(k)`` is ``None``: the derivative along input coordinate
        ``k`` is the unit vector ``e_k``, which the first linear layer turns
        into its weight row ``k``.  ``second(a, b)`` is ``None`` (zero).
        """
        return x, lambda k: None, lambda a, b: None


class FourierEncoding(Module):
    """Random Fourier feature encoding ``[sin(2π x B), cos(2π x B)]``.

    The frequency matrix ``B`` is fixed (not trained), matching Modulus'
    ``fourier`` input encoding.  Output width is ``2 * num_frequencies``.
    """

    def __init__(self, in_features, num_frequencies=32, scale=1.0, rng=None,
                 dtype=np.float64):
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = int(in_features)
        self.num_frequencies = int(num_frequencies)
        self.frequencies = Tensor(
            (rng.normal(0.0, scale, (in_features, num_frequencies)) * 2.0 * np.pi)
            .astype(dtype))

    @property
    def out_features(self):
        """Width of the encoded feature vector."""
        return 2 * self.num_frequencies

    def forward(self, x):
        projected = x @ self.frequencies
        return concat([ad.sin(projected), ad.cos(projected)], axis=1)

    def jet(self, x):
        """``(value, first, second)`` for forward jets.

        With ``p = x B``, the derivative along input coordinate ``k`` is
        ``[cos(p) B_k, -sin(p) B_k]`` and along ``(a, b)`` it is
        ``[-sin(p) B_a B_b, -cos(p) B_a B_b]``, ``B_k`` being row ``k`` of
        the frequency matrix.
        """
        projected = x @ self.frequencies
        sin, cos = ad.sin(projected), ad.cos(projected)
        rows = self.frequencies

        def first(k):
            row = rows[k:k + 1]
            return concat([cos * row, -(sin * row)], axis=1)

        def second(a, b):
            row = rows[a:a + 1] * rows[b:b + 1]
            return concat([-(sin * row), -(cos * row)], axis=1)

        return concat([sin, cos], axis=1), first, second
