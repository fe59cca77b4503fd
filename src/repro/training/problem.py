"""The :class:`Problem` dataclass: one PINN workload, fully assembled.

Each registered problem's ``build_<name>_problem`` returns one.  A
``Problem`` carries everything the training engine needs to be dimension-
and output-agnostic: the network input width follows from
``spatial_names`` plus the cloud's parameter columns, the output width from
``output_names``, and validators come from a factory so each run can draw
its own validation points deterministically.  It lives beside the
constraints it holds, below both :mod:`repro.experiments` (whose builders
return it) and :mod:`repro.api` (which registers those builders).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Problem"]


@dataclass
class Problem:
    """A fully assembled PINN workload.

    Attributes
    ----------
    name:
        Registry key / display name (e.g. ``"ldc"``).
    constraints:
        List of :class:`repro.training.Constraint`; exactly one should be
        named ``"interior"`` (the cloud importance samplers act on).
    interior_cloud:
        The interior :class:`repro.geometry.PointCloud`.
    output_names:
        Network output fields in column order (drives output width).
    spatial_names:
        Coordinate names in column order (drives input width and the
        trainer's gradient probes), e.g. ``("x", "t")`` or
        ``("x", "y", "z")``.
    validator_factory:
        Optional callable ``rng -> list[PointwiseValidator]``.
    param_space:
        Optional :class:`repro.geometry.ParamSpace` for parameterized
        geometry families.
    extra_modules:
        Mapping name -> :class:`repro.nn.Module` of extra trainable pieces
        beyond the network — e.g. a
        :class:`~repro.pde.TrainableCoefficient` an inverse problem's PDE
        closes over.  The engine folds their parameters into the optimizer
        and the run store checkpoints their state alongside the network.
    """

    name: str
    constraints: list
    interior_cloud: object
    output_names: tuple
    spatial_names: tuple
    validator_factory: object = None
    param_space: object = field(default=None, repr=False)
    extra_modules: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.output_names = tuple(self.output_names)
        self.spatial_names = tuple(self.spatial_names)
        self.extra_modules = dict(self.extra_modules or {})
        names = [c.name for c in self.constraints]
        if "interior" not in names:
            raise ValueError(f"problem {self.name!r} has no 'interior' "
                             f"constraint (got {names})")

    # ------------------------------------------------------------------
    @property
    def dims(self):
        """Number of spatial (coordinate) dimensions."""
        return len(self.spatial_names)

    @property
    def n_params(self):
        """Number of geometry-parameter input columns."""
        return self.interior_cloud.params.shape[1]

    @property
    def in_features(self):
        """Network input width: coordinates then parameters."""
        return self.dims + self.n_params

    @property
    def out_features(self):
        """Network output width."""
        return len(self.output_names)

    @property
    def interior(self):
        """The constraint named ``"interior"``."""
        return next(c for c in self.constraints if c.name == "interior")

    @property
    def extra_parameters(self):
        """Trainable parameters of ``extra_modules``, in registration order.

        The engine appends these to the network's parameter list when it
        constructs the optimizer, so the order here must stay deterministic
        (it also fixes the optimizer-state layout a checkpoint restores).
        """
        return [param for module in self.extra_modules.values()
                for param in module.parameters()]

    # ------------------------------------------------------------------
    def make_validators(self, rng=None):
        """Build this problem's validators (empty when no factory is set)."""
        if self.validator_factory is None:
            return []
        rng = rng if rng is not None else np.random.default_rng(0)
        return list(self.validator_factory(rng))
