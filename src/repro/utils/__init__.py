"""Shared utilities: interpolation, timing, ASCII plotting."""

from .interpolate import bilinear_interpolate
from .timing import TrainingClock
from .ascii_plot import ascii_plot

__all__ = ["bilinear_interpolate", "TrainingClock", "ascii_plot"]
