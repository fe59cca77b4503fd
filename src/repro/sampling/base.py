"""Sampler interface shared by SGM-PINN and the baselines.

The trainer owns the dataset and the network; samplers own *which indices go
into each mini-batch*.  Probing (extra forward passes used to refresh
importance scores) happens through callbacks the trainer registers, so every
sampler's overhead is charged to the same wall clock the paper measures:

* ``probe_loss(indices) -> (n,)``   per-sample total loss (Algorithm 1 line 6)
* ``probe_outputs(indices) -> (n, q)`` network outputs (for ISR / S3)
* ``probe_grad_norm(indices) -> (n,)`` 2-norm of velocity derivatives (the
  quantity Modulus' built-in importance sampling uses)

Samplers count every probed point in :attr:`probe_points` so experiments can
report overhead in "extra forward passes", matching §3.6.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["Sampler"]


def _scalar(value):
    """Coerce a checkpoint leaf (possibly a 0-d numpy array) to a scalar."""
    return value.item() if isinstance(value, np.ndarray) else value


class Sampler:
    """Base class: uniform-iid batches, no probing, no overhead."""

    name = "base"

    def __init__(self, n_points, seed=0):
        self.n_points = int(n_points)
        if self.n_points < 1:
            raise ValueError("sampler needs at least one point")
        self.rng = np.random.default_rng(seed)
        self.probe_loss = None
        self.probe_outputs = None
        self.probe_grad_norm = None
        #: total number of points probed so far (overhead accounting)
        self.probe_points = 0

    # ------------------------------------------------------------------
    def bind_probes(self, probe_loss=None, probe_outputs=None,
                    probe_grad_norm=None):
        """Attach the trainer's probe callbacks."""
        self.probe_loss = probe_loss
        self.probe_outputs = probe_outputs
        self.probe_grad_norm = probe_grad_norm

    def batch_indices(self, step, batch_size):
        """Indices of the mini-batch for iteration ``step`` (0-based)."""
        raise NotImplementedError

    def batch_weights(self, indices):
        """Optional per-sample loss weights for the batch (None = uniform)."""
        return None

    def start(self):
        """One-time initialisation before training (build graphs etc.)."""

    # ------------------------------------------------------------------
    # Resumable state (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Snapshot of the sampler's mutable state.

        The RNG state is JSON-encoded (PCG64 carries 128-bit integers that
        ``.npz`` archives cannot hold natively), so the whole dict flattens
        cleanly into a checkpoint.  Restoring it with :meth:`load_state_dict`
        makes every subsequent batch bit-identical to an uninterrupted run.
        """
        return {
            "rng": json.dumps(self.rng.bit_generator.state),
            "probe_points": self.probe_points,
        }

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict`.

        Keys this sampler does not read are ignored, so checkpoints that
        carry keys older versions wrote load unchanged.
        """
        self.rng.bit_generator.state = json.loads(str(_scalar(state["rng"])))
        self.probe_points = int(_scalar(state["probe_points"]))
