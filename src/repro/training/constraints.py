"""Training constraints: interior PDE residuals and boundary conditions.

A constraint owns a point cloud, knows how to evaluate its residuals on a
batch of indices, and carries the loss weight used in the aggregate (eq. 4).
Interior constraints support Modulus-style SDF weighting (residuals near
walls are down-weighted by the wall distance, as in the LDC example the
paper benchmarks).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..pde import Fields

__all__ = ["Constraint", "InteriorConstraint", "BoundaryConstraint",
           "DataConstraint"]


class Constraint:
    """Base: point cloud + batch size + residual evaluation.

    ``field_sources`` maps extra field names to callables
    ``(coords, params) -> (n,)`` evaluated per batch and registered as
    constant (non-trainable) fields — e.g. a prescribed advecting velocity
    the PDE reads alongside the network outputs.
    """

    def __init__(self, name, cloud, output_names, batch_size, weight=1.0,
                 spatial_names=("x", "y"), dtype=np.float64,
                 field_sources=None):
        self.name = name
        self.cloud = cloud
        self.output_names = tuple(output_names)
        self.batch_size = int(batch_size)
        self.weight = float(weight)
        self.spatial_names = tuple(spatial_names)
        self.dtype = np.dtype(dtype)
        self.field_sources = dict(field_sources or {})
        overlap = set(self.field_sources) & set(self.output_names)
        if overlap:
            raise KeyError(f"field_sources shadow network outputs: "
                           f"{sorted(overlap)}")
        self._features = cloud.features().astype(self.dtype)

    def set_dtype(self, dtype):
        """Switch the working precision of this constraint's features."""
        self.dtype = np.dtype(dtype)
        self._features = self.cloud.features().astype(self.dtype)

    @property
    def n_points(self):
        """Dataset size this constraint samples from."""
        return len(self.cloud)

    def build_fields(self, net, indices):
        """Forward the network on a batch and register outputs as fields."""
        fields = Fields.evaluate(net, self._features[indices],
                                 self.output_names,
                                 spatial_names=self.spatial_names,
                                 param_names=self.cloud.param_names)
        for name, source in self.field_sources.items():
            value = np.asarray(source(self.cloud.coords[indices],
                                      self.cloud.params[indices]),
                               dtype=self.dtype).reshape(-1, 1)
            fields.register(name, Tensor(value))
        if self.cloud.sdf is not None:
            fields.register("sdf",
                            Tensor(self.cloud.sdf[indices].astype(self.dtype)))
        return fields

    def residuals(self, net, indices):
        """Return ``(dict name -> (n,1) residual tensor, per-sample weight)``."""
        raise NotImplementedError

    def sample_weight_for(self, indices):
        """Per-sample loss weight array for a batch (``None`` = uniform).

        The single source of truth for both the eager loss assembly and the
        replay engine's per-step weight inputs; subclasses with weighting
        (SDF-weighted interiors) override it and :meth:`residuals` calls it.
        """
        return None

    def replay_inputs(self, indices):
        """Per-step input arrays, in the order :meth:`residuals` wraps them.

        The replay compiler binds each array created while tracing a step —
        batch coordinate columns, source fields, SDF batches, targets — to
        an input slot; this method rebuilds the same arrays for a new batch
        so a compiled tape can be re-run without touching the graph code.
        Order and bitwise content must mirror :meth:`build_fields` (and the
        subclass's :meth:`residuals`) exactly; the trainer verifies that at
        trace time and refuses to compile on any mismatch.
        """
        batch = self._features[indices]
        names = tuple(self.spatial_names) + tuple(self.cloud.param_names)
        arrays = [batch[:, i:i + 1].copy() for i in range(len(names))]
        for name, source in self.field_sources.items():
            arrays.append(np.asarray(source(self.cloud.coords[indices],
                                            self.cloud.params[indices]),
                                     dtype=self.dtype).reshape(-1, 1))
        if self.cloud.sdf is not None:
            arrays.append(self.cloud.sdf[indices].astype(self.dtype))
        return arrays


class InteriorConstraint(Constraint):
    """PDE residuals on interior collocation points.

    Parameters
    ----------
    pde:
        A :class:`repro.pde.PDE` instance.
    sdf_weighting:
        Weight each sample's residual by its wall distance (Modulus default
        for the paper's examples).
    residual_weights:
        Optional per-residual-name scale factors.
    """

    def __init__(self, name, cloud, pde, batch_size, weight=1.0,
                 sdf_weighting=True, residual_weights=None,
                 spatial_names=("x", "y"), field_sources=None):
        super().__init__(name, cloud, pde.output_names, batch_size,
                         weight=weight, spatial_names=spatial_names,
                         field_sources=field_sources)
        self.pde = pde
        self.sdf_weighting = bool(sdf_weighting) and cloud.sdf is not None
        self.residual_weights = dict(residual_weights or {})

    def residuals(self, net, indices):
        fields = self.build_fields(net, indices)
        raw = self.pde.residuals(fields)
        scaled = {}
        for name, tensor in raw.items():
            factor = self.residual_weights.get(name, 1.0)
            scaled[name] = tensor if factor == 1.0 else tensor * factor
        return scaled, self.sample_weight_for(indices)

    def sample_weight_for(self, indices):
        if not self.sdf_weighting:
            return None
        # cast to the constraint's working precision: the raw sdf is
        # float64 and would silently upcast a float32 loss graph
        return np.maximum(self.cloud.sdf[indices],
                          0.0).astype(self.dtype, copy=False)

    def replay_inputs(self, indices):
        arrays = super().replay_inputs(indices)
        batch = self._features[indices]
        names = tuple(self.spatial_names) + tuple(self.cloud.param_names)
        columns = {name: batch[:, i:i + 1] for i, name in enumerate(names)}
        arrays.extend(self.pde.replay_arrays(columns))
        return arrays


class BoundaryConstraint(Constraint):
    """Dirichlet-type boundary conditions ``out[var] = target``.

    Parameters
    ----------
    targets:
        Mapping variable name -> constant or callable
        ``(coords, params) -> (n,) array``.
    """

    def __init__(self, name, cloud, output_names, targets, batch_size,
                 weight=1.0, spatial_names=("x", "y")):
        super().__init__(name, cloud, output_names, batch_size,
                         weight=weight, spatial_names=spatial_names)
        unknown = set(targets) - set(self.output_names)
        if unknown:
            raise KeyError(f"targets reference unknown outputs: {unknown}")
        self.targets = dict(targets)

    def residuals(self, net, indices):
        fields = self.build_fields(net, indices)
        coords = self.cloud.coords[indices]
        params = self.cloud.params[indices]
        out = {}
        for var, target in self.targets.items():
            if callable(target):
                value = np.asarray(target(coords, params),
                                   dtype=self.dtype).reshape(-1, 1)
            else:
                value = np.full((len(coords), 1), float(target),
                                dtype=self.dtype)
            out[f"{self.name}_{var}"] = fields.get(var) - Tensor(value)
        return out, None

    def replay_inputs(self, indices):
        arrays = super().replay_inputs(indices)
        coords = self.cloud.coords[indices]
        params = self.cloud.params[indices]
        for target in self.targets.values():
            if callable(target):
                arrays.append(np.asarray(target(coords, params),
                                         dtype=self.dtype).reshape(-1, 1))
            else:
                arrays.append(np.full((len(coords), 1), float(target),
                                      dtype=self.dtype))
        return arrays


class DataConstraint(Constraint):
    """Measurement-data fitting: ``out[var] = measured value`` per point.

    Covers the "measurement data" term of the loss in eq. 4 and the inverse
    / data-assimilation use case from the paper's introduction: sparse
    sensor readings pin the solution while the PDE residual fills the rest
    of the domain.

    Parameters
    ----------
    values:
        Mapping variable name -> ``(n,)`` measured values aligned with the
        cloud's rows.
    """

    def __init__(self, name, cloud, output_names, values, batch_size,
                 weight=1.0, spatial_names=("x", "y")):
        super().__init__(name, cloud, output_names, batch_size,
                         weight=weight, spatial_names=spatial_names)
        self.values = {}
        for var, array in values.items():
            if var not in self.output_names:
                raise KeyError(f"measured variable {var!r} is not a "
                               f"network output")
            array = np.asarray(array, dtype=np.float64).reshape(-1, 1)
            if len(array) != len(cloud):
                raise ValueError(f"{var}: {len(array)} values for "
                                 f"{len(cloud)} points")
            self.values[var] = array

    def residuals(self, net, indices):
        fields = self.build_fields(net, indices)
        out = {}
        for var, array in self.values.items():
            target = Tensor(array[indices].astype(self.dtype))
            out[f"{self.name}_{var}"] = fields.get(var) - target
        return out, None

    def replay_inputs(self, indices):
        arrays = super().replay_inputs(indices)
        for array in self.values.values():
            arrays.append(array[indices].astype(self.dtype))
        return arrays
