"""Figure 4: pressure-error fields of trained annular-ring networks.

The error-vs-time curves of Figures 2/3 are drawn from histories alone by
:mod:`repro.experiments.report`.
"""

from __future__ import annotations

import numpy as np

from ..pde import Fields
from .annular_ring import OUTPUT_NAMES, PARAM_NAMES, ar_reference

__all__ = ["pressure_error_fields"]


def pressure_error_fields(results, config, r_inner=1.0):
    """Figure 4: absolute pressure-error field per method at ``r_inner``.

    Parameters
    ----------
    results:
        ``{label: result}`` where each result carries its trained ``.net``
        (a suite's :class:`~repro.experiments.MethodResult` or a
        :class:`~repro.api.RunResult`).
    config:
        The annular-ring config (for the reference grid).

    Returns
    -------
    dict with the grid (``xs``, ``ys``, ``mask``) and, per method label,
    the absolute-error field (NaN outside the fluid) and its mean.
    """
    reference = ar_reference(config, r_inner)
    mask = reference["mask"] > 0.5
    gx, gy = np.meshgrid(reference["xs"], reference["ys"])
    points = np.stack([gx[mask], gy[mask]], axis=1)
    features = np.concatenate(
        [points, np.full((len(points), 1), r_inner)], axis=1)

    out = {"xs": reference["xs"], "ys": reference["ys"], "mask": mask,
           "fields": {}, "mean_abs_error": {}}
    for label, result in results.items():
        fields = Fields.evaluate(result.net, features, OUTPUT_NAMES,
                                 param_names=PARAM_NAMES)
        p_pred = fields.get("p").numpy()[:, 0]
        error = np.abs(p_pred - reference["p"][mask])
        field = np.full(mask.shape, np.nan)
        field[mask] = error
        out["fields"][label] = field
        out["mean_abs_error"][label] = float(error.mean())
    return out
