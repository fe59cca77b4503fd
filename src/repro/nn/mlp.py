"""Fully connected networks in the paper's architecture (eq. 2)."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from .layers import ACTIVATIONS, Linear
from .module import Module

__all__ = ["FullyConnected", "Jet"]


class FullyConnected(Module):
    """Feed-forward network ``W_n(phi_{n-1} ∘ ... ∘ phi_1)(x) + b_n``.

    Parameters
    ----------
    in_features:
        Number of input features (spatial coordinates plus any geometry
        parameters for parameterized PINNs).
    out_features:
        Number of outputs (e.g. ``u, v, p`` for 2-D incompressible flow).
    width:
        Hidden layer width (paper: 512).
    depth:
        Number of hidden layers (paper: 6).
    activation:
        Name of the hidden activation (paper: ``"silu"``), a key of
        :data:`repro.nn.ACTIVATIONS`.
    rng:
        Generator for reproducible initialisation.
    dtype:
        Parameter dtype.
    """

    def __init__(self, in_features, out_features, width=512, depth=6,
                 activation="silu", rng=None, dtype=np.float64):
        rng = rng if rng is not None else np.random.default_rng()
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {sorted(ACTIVATIONS)}")
        self.activation = activation
        self._act = ACTIVATIONS[activation]
        self.layers = []
        sizes = [in_features] + [width] * depth
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.layers.append(Linear(fan_in, fan_out, rng=rng, dtype=dtype))
        self.head = Linear(width, out_features, rng=rng, dtype=dtype)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x):
        for layer in self.layers:
            x = self._act(layer(x))
        return self.head(x)

    def jet(self, x):
        """Evaluate the network on ``x`` as a :class:`Jet`: the output value
        plus coordinate derivatives of it, each computed when first asked
        for."""
        return Jet(self, x)


class Jet:
    """A network output and its on-demand derivatives along input columns.

    The value pass runs the same ops as :meth:`FullyConnected.forward` and
    keeps each layer's activation derivative thunks.  A first derivative
    along input column ``k`` is one forward tangent pass,
    ``z_k <- (f'(z) z_k) W`` per layer; a second derivative along
    ``(a, b)`` is one pass of ``h_ab = f''(z) z_a z_b + f'(z) z_ab``, which
    reuses the first-order tangents of ``a`` and ``b``.  Every pass is built
    from autodiff ops, so the parameter backward, record/replay and further
    reverse-mode derivatives see an ordinary graph.  Directions nobody
    requests are never built.
    """

    def __init__(self, net, x):
        self._net = net
        self._rows = x.shape[0]
        h = x
        #: per layer: the activation's ``(first, second)`` derivative thunks
        self._act_rules = []
        for layer in net.layers:
            h, first, second = net._act.jet(layer(h))
            self._act_rules.append((first, second))
        #: ``(n, out)`` network output, bit-identical to ``net(x)``
        self.value = net.head(h)
        self._f1, self._f2 = {}, {}
        self._tangents, self._first, self._second = {}, {}, {}

    def _act_first(self, i):
        if i not in self._f1:
            self._f1[i] = self._act_rules[i][0]()
        return self._f1[i]

    def _act_second(self, i):
        if i not in self._f2:
            self._f2[i] = self._act_rules[i][1](self._act_first(i))
        return self._f2[i]

    def _full(self, out):
        # a net that is affine in its input has batch-constant derivatives;
        # give them the batch's row count like every other field
        if out.shape[0] != self._rows:
            out = ad.broadcast_to(out, (self._rows, out.shape[1]))
        return out

    def _pre_tangents(self, k):
        """Per-layer pre-activation derivatives along input column ``k``."""
        if k not in self._tangents:
            layers = self._net.layers
            # the input's tangent along column ``k`` is the unit vector
            # ``e_k``, which the first layer turns into its weight row ``k``
            z = layers[0].weight[k:k + 1]
            tangents = [z]
            for i in range(1, len(layers)):
                tangents.append(self._act_tangent(i - 1, z) @ layers[i].weight)
                z = tangents[-1]
            self._tangents[k] = tangents
        return self._tangents[k]

    def _act_tangent(self, i, z):
        f1 = self._act_first(i)
        return z if f1 is None else f1 * z

    def first(self, k):
        """``(n, out)`` derivative of the output along input column ``k``."""
        if k not in self._first:
            last = len(self._act_rules) - 1
            h = self._act_tangent(last, self._pre_tangents(k)[last])
            self._first[k] = self._full(h @ self._net.head.weight)
        return self._first[k]

    def second(self, a, b):
        """``(n, out)`` second derivative along input columns ``a`` and
        ``b`` (symmetric: ``second(a, b)`` is ``second(b, a)``)."""
        key = (min(a, b), max(a, b))
        if key not in self._second:
            a, b = key
            za, zb = self._pre_tangents(a), self._pre_tangents(b)
            layers = self._net.layers
            zab = None          # the input's second derivatives are zero
            for i in range(len(layers)):
                h = None
                f2 = self._act_second(i)
                if f2 is not None:
                    h = f2 * (za[i] * zb[i])
                if zab is not None:
                    term = self._act_tangent(i, zab)
                    h = term if h is None else h + term
                weight = (layers[i + 1].weight if i + 1 < len(layers)
                          else self._net.head.weight)
                zab = None if h is None else h @ weight
            if zab is None:
                zab = ad.zeros_like(self.value)
            self._second[key] = self._full(zab)
        return self._second[key]
