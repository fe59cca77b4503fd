"""Learning-rate schedules (Modulus default: exponential decay)."""

from __future__ import annotations

__all__ = ["ExponentialDecayLR"]


class ExponentialDecayLR:
    """``lr = base_lr * decay_rate ** (step / decay_steps)``.

    Matches Modulus'/TensorFlow's staircase-free exponential decay, the
    default schedule in the examples the paper benchmarks.
    """

    def __init__(self, optimizer, decay_rate=0.95, decay_steps=4000):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.decay_rate = float(decay_rate)
        self.decay_steps = int(decay_steps)
        self._step = 0

    def step(self):
        """Advance one iteration and update the optimizer's learning rate."""
        self._step += 1
        self.optimizer.lr = (self.base_lr *
                             self.decay_rate ** (self._step / self.decay_steps))

    def state_dict(self):
        """Snapshot of the schedule's mutable state."""
        return {"base_lr": self.base_lr, "step": self._step}

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict`; the optimizer's
        current ``lr`` is carried by the optimizer's own state."""
        self.base_lr = float(state["base_lr"])
        self._step = int(state["step"])
