"""First-order optimizers operating on Parameter tensors.

Optimizers receive gradients computed by
:func:`repro.autodiff.gradients` and update parameter arrays in place; each
training step builds a fresh graph, so no ``zero_grad`` is needed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer holding a parameter list and a step counter."""

    def __init__(self, params, lr):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.step_count = 0

    def state_dict(self):
        """Snapshot of the optimizer's mutable state (copies)."""
        return {"lr": self.lr, "step_count": self.step_count}

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])

    def step(self, grads):
        """Apply one update given per-parameter gradient tensors/arrays."""
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, "
                             f"got {len(grads)}")
        arrays = [g.numpy() if hasattr(g, "numpy") else np.asarray(g)
                  for g in grads]
        self.step_count += 1
        self._update(arrays)

    def _update(self, grads):
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) — the optimizer Modulus uses by default."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def state_dict(self):
        state = super().state_dict()
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._m = [np.asarray(m).copy() for m in state["m"]]
        self._v = [np.asarray(v).copy() for v in state["v"]]

    def _update(self, grads):
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
