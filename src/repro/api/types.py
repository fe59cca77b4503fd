"""Shared result/spec types of the public API.

This module imports nothing from :mod:`repro` besides numpy, so
:mod:`repro.api`, :mod:`repro.dp` and :mod:`repro.experiments` can all
import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MethodSpec", "RunResult", "SamplerStats"]


@dataclass
class MethodSpec:
    """One column of a results table."""

    label: str
    kind: str              # a sampler-registry key: uniform | mis | sgm | sgm_s
    n_interior: int
    batch_size: int


class SamplerStats:
    """Picklable sampler statistics: the run record's ``sampler.json``.

    Carries what tables, figures and records read from a trained sampler
    (``probe_points`` overhead, SGM cluster ``labels``, refresh and
    rebuild counts) without the live probe closures, which cannot cross
    a process boundary.  ``n_shards`` and ``world_size`` are a
    data-parallel run's shard count and rank count (1 for serial runs).
    """

    def __init__(self, name, probe_points, labels=None, refresh_count=0,
                 rebuild_count=0, n_shards=1, world_size=1):
        self.name = name
        self.probe_points = int(probe_points)
        self.labels = labels
        self.refresh_count = int(refresh_count)
        self.rebuild_count = int(rebuild_count)
        self.n_shards = int(n_shards)
        self.world_size = int(world_size)

    @classmethod
    def of(cls, sampler, **overrides):
        """Snapshot a live sampler; ``overrides`` replace single fields."""
        labels = getattr(sampler, "labels", None)
        fields = {
            "name": getattr(sampler, "name", type(sampler).__name__),
            "probe_points": getattr(sampler, "probe_points", 0),
            "labels": None if labels is None else np.asarray(labels).copy(),
            "refresh_count": getattr(sampler, "refresh_count", 0),
            "rebuild_count": getattr(sampler, "rebuild_count", 0),
        }
        fields.update(overrides)
        return cls(**fields)

    def __repr__(self):
        return (f"SamplerStats(name={self.name!r}, "
                f"probe_points={self.probe_points}, "
                f"n_shards={self.n_shards}, world_size={self.world_size})")


@dataclass
class RunResult:
    """Trained artefacts for one method.

    ``sampler`` is the live interior sampler of a serial run and the
    :class:`SamplerStats` of a data-parallel one.  ``run_id`` is set when
    the run recorded into a :class:`repro.store.RunStore` (else ``None``).
    ``coefficients`` maps each trainable PDE coefficient (inverse problems)
    to its recovered value — empty for forward problems.  ``obs`` is the
    run's exported span/metric data (``Tracer.export()`` dict) when tracing
    was enabled, else ``None``; it is plain picklable data, so process-pool
    workers ship it back with the result.
    """

    label: str
    history: object
    net: object
    sampler: object
    config: object = field(repr=False, default=None)
    run_id: str = None
    coefficients: dict = field(default_factory=dict)
    obs: dict = field(repr=False, default=None)
