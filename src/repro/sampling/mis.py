"""Modulus-style pointwise importance sampling (the paper's MIS baseline).

Follows Nabian, Gladstone & Meidani (2021) as implemented in Modulus:
sampling probability proportional to an importance measure — the 2-norm of
the velocity derivatives — evaluated over the *entire* dense point cloud.
Mini-batch losses are re-weighted by ``1 / (N p_i)`` to keep the integral
estimate unbiased.  Nabian et al.'s loss-proportional variant (their eq. 7)
is not reproduced: the paper's MIS column uses Modulus' measure.

The paper reduces how often MIS refreshes its measure to the same ``tau_e``
cadence SGM-PINN uses ("for an even comparison we reduce how often the
dataset is updated to match tau_e"); the refresh costs one probe per dataset
point, which is exactly the overhead §3.6 attributes to prior IS methods.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .base import Sampler, _scalar

__all__ = ["MISSampler"]


class MISSampler(Sampler):
    """Gradient-norm-proportional importance sampling over all points."""

    name = "mis"

    def __init__(self, n_points, tau_e=7000, floor_fraction=0.1, seed=0):
        """
        Parameters
        ----------
        n_points:
            Dataset size ``N``.
        tau_e:
            Refresh cadence in iterations.
        floor_fraction:
            Mixes a uniform floor into the distribution
            (``p = (1-f) p_importance + f / N``) so no region is starved —
            Modulus does the same to keep the estimator well conditioned.
        """
        super().__init__(n_points, seed=seed)
        self.tau_e = int(tau_e)
        if self.tau_e < 1:
            raise ValueError(f"tau_e must be >= 1, got {self.tau_e}")
        self.floor_fraction = float(floor_fraction)
        self.probabilities = np.full(n_points, 1.0 / n_points)
        self._refreshed_once = False

    @property
    def refresh_count(self):
        """Refreshes so far: each one probes all :attr:`n_points`."""
        return self.probe_points // self.n_points

    # ------------------------------------------------------------------
    def _refresh(self):
        if self.probe_grad_norm is None:
            raise RuntimeError("MIS sampler needs probe callbacks bound "
                               "before training starts")
        with obs.timed_span("sampler.refresh") as refresh_timer:
            all_points = np.arange(self.n_points)
            values = np.asarray(self.probe_grad_norm(all_points),
                                dtype=np.float64).ravel()
            self.probe_points += self.n_points
            values = np.maximum(values, 0.0)
            total = values.sum()
            if total <= 0.0:
                importance = np.full(self.n_points, 1.0 / self.n_points)
            else:
                importance = values / total
            floor = self.floor_fraction / self.n_points
            self.probabilities = ((1.0 - self.floor_fraction) * importance
                                  + floor)
            self.probabilities /= self.probabilities.sum()
            self._refreshed_once = True
        obs.inc("sampler.refresh_count")
        obs.inc("sampler.refresh_seconds", refresh_timer.seconds)

    def batch_indices(self, step, batch_size):
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not self._refreshed_once or (step > 0 and step % self.tau_e == 0):
            self._refresh()
        # without-replacement draws need at least batch_size admissible
        # (p > 0) points; small-scale configs can ask for more than the
        # dataset holds, so only that degenerate path switches to
        # with-replacement (the common path's RNG stream is untouched)
        admissible = int(np.count_nonzero(self.probabilities))
        replace = batch_size > admissible
        return self.rng.choice(self.n_points, size=batch_size,
                               replace=replace, p=self.probabilities)

    def batch_weights(self, indices):
        """Unbiased importance weights ``1 / (N p_i)``, mean-normalised."""
        w = 1.0 / (self.n_points * self.probabilities[indices])
        return w / w.mean()

    # ------------------------------------------------------------------
    def state_dict(self):
        state = super().state_dict()
        state["probabilities"] = self.probabilities.copy()
        state["refreshed_once"] = int(self._refreshed_once)
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.probabilities = np.asarray(state["probabilities"],
                                        dtype=np.float64).copy()
        self._refreshed_once = bool(int(_scalar(state["refreshed_once"])))
