"""The training wall clock.

Graph rebuilds run synchronously inside the step, so their seconds land
on this clock like every other part of training (probes included).
"""

from __future__ import annotations

import time

__all__ = ["TrainingClock"]


class TrainingClock:
    """Monotonic wall clock of one training run.

    ``offset`` pre-ages the clock: a resumed run passes the elapsed seconds
    stored in its checkpoint so recorded wall times continue the original
    series instead of restarting at zero.
    """

    def __init__(self, offset=0.0):
        self.offset = float(offset)
        self._start = time.perf_counter() - self.offset

    def elapsed(self):
        """Seconds since training started, plus ``offset``."""
        return time.perf_counter() - self._start
