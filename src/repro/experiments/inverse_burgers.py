"""Inverse-viscosity problem builder (the data-assimilation workload).

The paper's introduction motivates PINNs through "inverse or data
assimilation problems": recover an unknown physical coefficient from sparse
measurements.  Here the Burgers travelling wave generated at
``config.true_nu`` is observed at ``config.n_sensors`` scattered space-time
sensor locations; the network and a softplus-positive
:class:`~repro.pde.TrainableCoefficient` (started at ``config.nu_initial``)
are fitted jointly so the PDE residual and the
:class:`~repro.training.DataConstraint` measurement misfit both vanish —
which only happens at the true viscosity.

The built :class:`~repro.training.Problem` carries the coefficient under
``extra_modules`` so the engine (:func:`repro.api.run_problem`) folds its
parameter into the optimizer and the run store checkpoints its state
alongside the network — interrupted inverse runs resume bit-identically,
coefficient included.
"""

from __future__ import annotations

from ..geometry import PointCloud, Rectangle
from ..pde import Burgers1D, TrainableCoefficient, burgers_travelling_wave
from ..training import (
    CoefficientValidator, DataConstraint, InteriorConstraint,
    PointwiseValidator, Problem,
)

__all__ = ["build_inverse_burgers_problem", "inverse_burgers_exact",
           "inverse_burgers_validators", "OUTPUT_NAMES", "SPATIAL_NAMES"]

OUTPUT_NAMES = ("u",)
SPATIAL_NAMES = ("x", "t")

#: the (x, t) space-time domain: x in [-1, 1], t in [0, 1]
DOMAIN = ((-1.0, 0.0), (1.0, 1.0))


def inverse_burgers_exact(config, x, t):
    """The wave the sensors observed (at the *true* viscosity)."""
    return burgers_travelling_wave(x, t, config.true_nu,
                                   amplitude=config.amplitude,
                                   speed=config.speed)


def inverse_burgers_validators(config, coefficient, rng):
    """Field error against the observed wave + coefficient recovery error.

    ``err(u)`` is the usual relative L2 against the exact travelling wave;
    ``err(nu)`` is ``|recovered - true| / true`` read live from the
    coefficient, so the history shows the viscosity converging.
    """
    lo, hi = DOMAIN
    points = rng.uniform(lo, hi, (config.n_validation, 2))
    exact = inverse_burgers_exact(config, points[:, 0], points[:, 1])
    return [
        PointwiseValidator("inverse_burgers", points, {"u": exact},
                           OUTPUT_NAMES, spatial_names=SPATIAL_NAMES),
        CoefficientValidator(coefficient, config.true_nu, name="nu"),
    ]


def build_inverse_burgers_problem(config, n_interior, rng):
    """Inverse viscosity recovery: fit a trainable ν jointly with the net
    from sparse Burgers sensor data.

    One inverse run: the interior cloud, the sensor data constraint, and
    ``extra_modules`` mapping ``"nu"`` to the
    :class:`~repro.pde.TrainableCoefficient` the interior PDE closes over.
    """
    domain = Rectangle(*DOMAIN)
    interior = domain.sample_interior(n_interior, rng)

    lo, hi = DOMAIN
    sensor_coords = rng.uniform(lo, hi, (config.n_sensors, 2))
    sensors = PointCloud(coords=sensor_coords)
    measurements = inverse_burgers_exact(config, sensor_coords[:, 0],
                                         sensor_coords[:, 1])

    nu = TrainableCoefficient(config.nu_initial, positive=True, name="nu",
                              dtype=config.network.dtype)
    constraints = [
        InteriorConstraint("interior", interior, Burgers1D(nu=nu),
                           batch_size=0, sdf_weighting=False,
                           spatial_names=SPATIAL_NAMES),
        DataConstraint("sensors", sensors, OUTPUT_NAMES,
                       {"u": measurements},
                       batch_size=0, weight=config.data_weight,
                       spatial_names=SPATIAL_NAMES),
    ]
    return Problem(
        "inverse_burgers", constraints, interior, OUTPUT_NAMES, SPATIAL_NAMES,
        validator_factory=lambda vrng: inverse_burgers_validators(
            config, nu, vrng),
        extra_modules={"nu": nu})
