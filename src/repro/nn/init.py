"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform"]


def xavier_uniform(rng, fan_in, fan_out, gain=1.0):
    """Glorot/Xavier uniform init: U(-a, a), a = gain * sqrt(6/(fan_in+fan_out))."""
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))

