"""Figure regeneration: error-vs-time curves (Fig. 2/3) and pressure-error
fields (Fig. 4), emitted as CSV series plus ASCII charts."""

from __future__ import annotations

import csv

import numpy as np

from ..pde import Fields
from ..utils import ascii_plot
from .annular_ring import OUTPUT_NAMES, PARAM_NAMES, ar_reference

__all__ = ["error_curves", "curves_to_csv", "render_curves",
           "pressure_error_fields"]


def error_curves(histories, var="v"):
    """Extract ``{label: (wall_times, errors)}`` for one variable."""
    return {label: history.error_series(var)
            for label, history in histories.items()}


def curves_to_csv(curves, path):
    """Write the figure series in long format (label, wall_time, error)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", "wall_time", "error"])
        for label, (times, errors) in curves.items():
            for t, e in zip(times, errors):
                writer.writerow([label, t, e])


def render_curves(curves, title, logy=True):
    """ASCII rendering of a figure (used by the bench harness stdout)."""
    series = [(times, errors, label)
              for label, (times, errors) in curves.items() if len(times)]
    return ascii_plot(series, logy=logy, title=title)


def pressure_error_fields(results, config, r_inner=1.0):
    """Figure 4: absolute pressure-error field per method at ``r_inner``.

    Parameters
    ----------
    results:
        ``{label: RunResult}`` with trained networks.
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
