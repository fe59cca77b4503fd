"""Validation against reference solutions (the role of Modulus validators).

A :class:`PointwiseValidator` holds validation points with reference values
(interpolated from a :mod:`repro.solvers` field) and reports the relative L2
error per variable — the metric the paper's tables and figures plot.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..pde import Fields

__all__ = ["CoefficientValidator", "PointwiseValidator", "merge_partial_l2",
           "relative_l2"]


def relative_l2(predicted, reference):
    """``||pred - ref||_2 / ||ref||_2`` (falls back to absolute when the
    reference is identically zero)."""
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    denom = np.linalg.norm(reference)
    if denom == 0.0:
        return float(np.linalg.norm(predicted))
    return float(np.linalg.norm(predicted - reference) / denom)


def merge_partial_l2(num, den):
    """Relative L2 from allreduced partial sums.

    ``num`` is the summed ``Σ (pred - ref)²`` and ``den`` the summed
    ``Σ ref²`` across shards (see
    :meth:`PointwiseValidator.evaluate_partial`); a zero reference falls
    back to the absolute norm, mirroring :func:`relative_l2`.
    """
    num, den = float(num), float(den)
    if den == 0.0:
        return float(np.sqrt(num))
    return float(np.sqrt(num) / np.sqrt(den))


class CoefficientValidator:
    """Report a trainable PDE coefficient's recovery error.

    Inverse problems recover a physical coefficient (a viscosity, a
    diffusivity) jointly with the network; this validator folds the
    relative recovery error ``|recovered - true| / |true|`` into the same
    error stream the trainer records for field errors, so ``repro runs``
    tables and convergence figures show the coefficient converging.

    Parameters
    ----------
    coefficient:
        A :class:`repro.pde.TrainableCoefficient` (anything with a
        ``value()`` method).
    true_value:
        The ground-truth coefficient the data was generated with.
    name:
        Error-variable name (default: the coefficient's own name).
    """

    def __init__(self, coefficient, true_value, name=None):
        self.coefficient = coefficient
        self.true_value = float(true_value)
        self.name = (name if name is not None
                     else getattr(coefficient, "coeff_name", "coefficient"))

    def evaluate(self, net):
        """Return ``{name: relative recovery error}`` (``net`` unused)."""
        denominator = abs(self.true_value)
        if denominator == 0.0:
            denominator = 1.0
        error = abs(self.coefficient.value() - self.true_value) / denominator
        return {self.name: error}


class PointwiseValidator:
    """Compare network outputs (and derived fields) to reference values.

    Parameters
    ----------
    name:
        Label (e.g. ``"ldc"`` or ``"ar_r1.0"``).
    features:
        ``(n, d+p)`` validation inputs.
    references:
        Mapping variable -> ``(n,)`` reference values.  Variables matching
        network outputs are read directly; others must appear in
        ``derived``.
    output_names:
        The network's output variables, in column order.
    derived:
        Mapping variable -> callable ``(fields) -> Tensor`` for quantities
        computed from network outputs (e.g. zero-equation ``nu``).
    spatial_names, param_names:
        Column naming for the feature matrix.
    sdf:
        Optional ``(n, 1)`` wall distances registered on the field bundle
        (needed by derived turbulence closures).
    """

    def __init__(self, name, features, references, output_names,
                 derived=None, spatial_names=("x", "y"), param_names=(),
                 sdf=None):
        self.name = name
        self.features = np.asarray(features, dtype=np.float64)
        self.references = {k: np.asarray(v, dtype=np.float64).ravel()
                           for k, v in references.items()}
        self.output_names = tuple(output_names)
        self.derived = dict(derived or {})
        self.spatial_names = tuple(spatial_names)
        self.param_names = tuple(param_names)
        self.sdf = None if sdf is None else np.asarray(sdf, dtype=np.float64)
        for var in self.references:
            if var not in self.output_names and var not in self.derived:
                raise KeyError(f"no way to compute validated variable {var!r}")

    def evaluate(self, net):
        """Return ``{var: relative_l2}`` for every referenced variable."""
        predicted = self._predict(net, slice(None))
        return {var: relative_l2(predicted[var], reference)
                for var, reference in self.references.items()}

    def _predict(self, net, rows):
        """``{var: (n,) prediction}`` for every referenced variable."""
        fields = Fields.evaluate(net, self.features[rows], self.output_names,
                                 spatial_names=self.spatial_names,
                                 param_names=self.param_names)
        if self.sdf is not None:
            fields.register("sdf", Tensor(self.sdf[rows].reshape(-1, 1)))
        predicted = {}
        for var in self.references:
            tensor = (self.derived[var](fields) if var in self.derived
                      else fields.get(var))
            predicted[var] = np.asarray(tensor.numpy(),
                                        dtype=np.float64).ravel()
        return predicted

    def evaluate_partial(self, net, rows):
        """Partial squared sums over a row subset, for sharded validation.

        Returns ``{var: (Σ (pred - ref)², Σ ref²)}`` as float64 scalars;
        shards' tuples sum elementwise, and :func:`merge_partial_l2` turns
        the totals into the relative L2.  An empty row set contributes
        exact zeros without evaluating the network.
        """
        rows = np.asarray(rows, dtype=int)
        if rows.size == 0:
            return {var: (0.0, 0.0) for var in self.references}
        predicted = self._predict(net, rows)
        results = {}
        for var, reference in self.references.items():
            reference = reference[rows]
            results[var] = (float(((predicted[var] - reference) ** 2).sum()),
                            float((reference ** 2).sum()))
        return results
