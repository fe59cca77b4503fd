"""Experiment configurations and scale presets.

Every problem's config subclasses :class:`ProblemConfig`, the training block
the paper's comparisons hold fixed across sampler columns (dataset and batch
sizes, the SGM schedule and graph settings, optimizer, network, validation
cadence), and adds its own physics fields.  :func:`preset` is the one code
path from a scale name to a config:

* ``paper`` documents the exact hyper-parameters of §4 (V100-scale; listed
  for reference).  Problems the paper does not run have no ``paper`` preset
  and return their base values, which are their repro scale.
* ``repro`` shrinks dataset, batch, network, and iteration counts
  proportionally so the full suite runs on a CPU in minutes while preserving
  every structural ratio the paper's comparisons rely on (batch_small :
  batch_large, N_small : N_large, tau_e : tau_G : steps).
* ``smoke`` is for CI: the shared :data:`SMOKE` overrides, then the
  problem's own smoke deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

__all__ = ["ProblemConfig", "NetworkConfig", "LDCConfig",
           "AnnularRingConfig", "BurgersConfig",
           "Poisson3DConfig", "AdvectionDiffusionConfig",
           "InverseBurgersConfig", "NS3DConfig", "preset", "SMOKE",
           "ldc_config", "annular_ring_config", "burgers_config",
           "poisson3d_config", "advection_diffusion_config",
           "inverse_burgers_config", "ns3d_config", "SCALES"]

SCALES = ("paper", "repro", "smoke")


@dataclass
class NetworkConfig:
    """PINN architecture (paper: width 512, depth 6, SiLU).

    ``dtype`` is the working precision; the repro presets use float32, which
    matches the paper's GPU setting (Modulus trains in single precision) and
    roughly halves CPU matmul time.
    """

    width: int = 512
    depth: int = 6
    activation: str = "silu"
    dtype: str = "float32"


@dataclass
class ProblemConfig:
    """The training block every problem shares (defaults: paper §4.1).

    A subclass declares its physics fields and redeclares only the
    defaults it changes.  ``PRESETS`` maps a scale name to the subclass's
    field overrides at that scale; a ``network`` entry is a dict of
    :class:`NetworkConfig` fields merged into the problem's own network.
    """

    PRESETS: ClassVar[dict] = {}

    scale: str = "paper"
    #: dataset sizes: baseline (U4000) vs reduced (U500 / MIS500 / SGM500)
    n_interior_large: int = 16_000_000
    n_interior_small: int = 8_000_000
    n_boundary: int = 40_000
    batch_large: int = 4000
    batch_small: int = 500
    steps: int = 2_500_000
    # SGM hyper-parameters (paper values)
    tau_e: int = 7000
    tau_G: int = 25_000
    knn_k: int = 30
    lrd_level: int = 10
    probe_ratio: float = 0.15
    # optimizer
    lr: float = 1e-3
    lr_decay_rate: float = 0.95
    lr_decay_steps: int = 4000
    boundary_weight: float = 100.0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    # validation / bookkeeping
    n_validation: int = 1600
    validate_every: int = 200
    record_every: int = 50
    seed: int = 0


#: the CI-scale overrides every problem's ``smoke`` preset starts from
SMOKE = {
    "n_interior_large": 2_000, "n_interior_small": 1_000,
    "n_boundary": 300, "batch_large": 64, "batch_small": 32,
    "steps": 60, "tau_e": 20, "tau_G": 45, "knn_k": 6, "lrd_level": 4,
    "lr_decay_steps": 100, "network": {"width": 16, "depth": 2},
    "n_validation": 150, "validate_every": 20, "record_every": 10,
}

#: the paper-to-CPU shrink the two paper problems' ``repro`` presets share
_REPRO_PAPER = {
    "n_interior_large": 40_000, "n_interior_small": 20_000,
    "batch_large": 320, "batch_small": 128, "tau_e": 300, "tau_G": 1000,
    "lr_decay_steps": 1200, "boundary_weight": 10.0,
    "network": {"width": 64, "depth": 4},
    "validate_every": 100, "record_every": 40,
}


def preset(config_cls, scale):
    """``config_cls`` at the named scale preset.

    ``smoke`` applies :data:`SMOKE`, then ``config_cls.PRESETS["smoke"]``;
    other scales apply ``config_cls.PRESETS[scale]`` alone.  A scale with
    no overrides returns the base values unchanged.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    base = config_cls()
    overrides = dict(SMOKE) if scale == "smoke" else {}
    overrides.update(config_cls.PRESETS.get(scale, {}))
    if not overrides:
        return base
    network = replace(base.network, **overrides.pop("network", {}))
    return replace(base, scale=scale, network=network, **overrides)


@dataclass
class LDCConfig(ProblemConfig):
    """Lid-driven cavity, zero-equation turbulence (paper §4.1, Table 1)."""

    PRESETS: ClassVar[dict] = {
        "repro": {**_REPRO_PAPER, "reynolds": 100.0, "n_boundary": 2_000,
                  "steps": 3000, "knn_k": 12, "lrd_level": 7,
                  "reference_resolution": 81, "n_validation": 900},
        "smoke": {"reynolds": 100.0, "lr": 2e-3,
                  "reference_resolution": 41, "n_validation": 200},
    }

    reynolds: float = 1000.0
    lid_velocity: float = 1.0
    turbulent: bool = True
    reference_resolution: int = 97
    full_diffusion: bool = False


@dataclass
class AnnularRingConfig(ProblemConfig):
    """Parameterized annular ring (paper §4.2, Table 2)."""

    PRESETS: ClassVar[dict] = {
        "repro": {**_REPRO_PAPER, "n_boundary": 2_400, "n_inlet_outlet": 600,
                  "steps": 2000, "reference_nx": 151, "reference_ny": 61,
                  "n_validation": 800, "param_draws": 24},
        "smoke": {"n_inlet_outlet": 100, "knn_k": 5, "lr": 2e-3,
                  "reference_nx": 81, "reference_ny": 33, "param_draws": 6},
    }

    nu: float = 0.1
    inlet_peak_velocity: float = 1.5
    r_inner_range: tuple = (0.75, 1.1)
    validation_radii: tuple = (1.0, 0.875, 0.75)
    n_inlet_outlet: int = 8_000
    batch_large: int = 4096
    batch_small: int = 1024
    steps: int = 400_000
    tau_G: int = 60_000
    knn_k: int = 7
    lrd_level: int = 6
    isr_weight: float = 1.0
    isr_k: int = 10
    isr_rank: int = 6
    reference_nx: int = 201
    reference_ny: int = 81
    n_validation: int = 1200
    param_draws: int = 32
    full_diffusion: bool = False


@dataclass
class BurgersConfig(ProblemConfig):
    """Viscous Burgers with a sharp travelling front (coordinates x, t).

    The exact solution ``u = c - a tanh(a (x - c t) / (2 nu))`` concentrates
    all residual mass in a thin moving front — the regime cluster-level
    importance sampling targets.  There is no ``paper`` preset; the base
    values are the repro scale.
    """

    PRESETS: ClassVar[dict] = {"smoke": {"n_validation": 200}}

    scale: str = "repro"
    nu: float = 0.01 / 3.141592653589793
    amplitude: float = 0.6
    speed: float = 0.4
    n_interior_large: int = 12_000
    n_interior_small: int = 6_000
    n_boundary: int = 1_200
    batch_large: int = 256
    batch_small: int = 128
    steps: int = 900
    tau_e: int = 150
    tau_G: int = 600
    knn_k: int = 8
    lrd_level: int = 5
    lr: float = 4e-3
    lr_decay_steps: int = 1200
    boundary_weight: float = 20.0
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig(width=32, depth=3,
                                              activation="tanh"))
    n_validation: int = 800
    validate_every: int = 100


@dataclass
class Poisson3DConfig(ProblemConfig):
    """3-D Poisson in the unit cube (coordinates x, y, z).

    Validated against the manufactured solution
    ``u = sin(pi x) sin(pi y) sin(pi z)``; the base values are the repro
    scale (there is no ``paper`` preset).
    """

    scale: str = "repro"
    n_interior_large: int = 10_000
    n_interior_small: int = 5_000
    n_boundary: int = 1_500
    batch_large: int = 256
    batch_small: int = 128
    steps: int = 700
    tau_e: int = 200
    tau_G: int = 1_500
    knn_k: int = 10
    lrd_level: int = 5
    lr: float = 3e-3
    lr_decay_steps: int = 1200
    boundary_weight: float = 10.0
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig(width=32, depth=3,
                                              activation="tanh"))
    n_validation: int = 600
    validate_every: int = 100


@dataclass
class AdvectionDiffusionConfig(ProblemConfig):
    """Steady advection-diffusion of a scalar in the unit square.

    A prescribed constant velocity advects a scalar ``T``; the exact
    solution ``T = exp((u x + v y) / alpha)`` steepens toward the outflow
    corner, giving the importance samplers a residual hot spot.  The base
    values are the repro scale (there is no ``paper`` preset).
    """

    scale: str = "repro"
    alpha: float = 0.5
    velocity: tuple = (1.0, 0.5)
    n_interior_large: int = 10_000
    n_interior_small: int = 5_000
    n_boundary: int = 1_200
    batch_large: int = 256
    batch_small: int = 128
    steps: int = 700
    tau_e: int = 200
    tau_G: int = 1_500
    knn_k: int = 8
    lrd_level: int = 5
    lr: float = 3e-3
    lr_decay_steps: int = 1200
    boundary_weight: float = 10.0
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig(width=32, depth=3,
                                              activation="tanh"))
    n_validation: int = 600
    validate_every: int = 100


@dataclass
class InverseBurgersConfig(ProblemConfig):
    """Inverse viscosity recovery on the Burgers travelling wave.

    The wave is observed at ``n_sensors`` scattered space-time locations;
    a network and a trainable viscosity (softplus-positive, started at
    ``nu_initial``) are fitted jointly until the PDE residual and the
    measurement misfit both vanish, recovering ``true_nu``.  The validator
    reports both the field error err(u) and the coefficient recovery error
    err(nu) = |recovered - true| / true.  The base values are the repro
    scale (there is no ``paper`` preset).
    """

    PRESETS: ClassVar[dict] = {"smoke": {"n_sensors": 200,
                                         "n_boundary": 200}}

    scale: str = "repro"
    #: viscosity the sensor data is generated with (the recovery target)
    true_nu: float = 0.2
    #: initial coefficient guess (10x too small, as in the original example)
    nu_initial: float = 0.02
    amplitude: float = 0.5
    speed: float = 0.5
    n_sensors: int = 600
    data_weight: float = 20.0
    n_interior_large: int = 12_000
    n_interior_small: int = 6_000
    n_boundary: int = 600
    batch_large: int = 256
    batch_small: int = 128
    steps: int = 900
    tau_e: int = 150
    tau_G: int = 600
    knn_k: int = 8
    lrd_level: int = 5
    lr: float = 5e-3
    lr_decay_steps: int = 1200
    boundary_weight: float = 20.0
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig(width=24, depth=2,
                                              activation="tanh"))
    n_validation: int = 600
    validate_every: int = 100


@dataclass
class NS3DConfig(ProblemConfig):
    """3-D Navier-Stokes in the unit cube (outputs u, v, w, p).

    Validated against the manufactured Beltrami (ABC) flow: a steady Euler
    solution whose viscous defect is supplied back as an exact body force
    ``f = nu k^2 U``, making the flow an exact solution of the *forced*
    Navier-Stokes system at any viscosity.  Dirichlet walls carry the exact
    velocity and pressure (pinning the pressure gauge).  The base values
    are the repro scale (there is no ``paper`` preset).
    """

    scale: str = "repro"
    nu: float = 0.1
    #: ABC-flow amplitudes (A, B, C)
    amplitudes: tuple = (1.0, 1.0, 1.0)
    #: wavenumber k of the Beltrami field over the unit cube
    wavenumber: float = 3.141592653589793
    n_interior_large: int = 10_000
    n_interior_small: int = 5_000
    n_boundary: int = 1_500
    batch_large: int = 256
    batch_small: int = 128
    steps: int = 700
    tau_e: int = 200
    tau_G: int = 1_500
    knn_k: int = 10
    lrd_level: int = 5
    lr: float = 3e-3
    lr_decay_steps: int = 1200
    boundary_weight: float = 10.0
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig(width=40, depth=3,
                                              activation="tanh"))
    n_validation: int = 600
    validate_every: int = 100


def ldc_config(scale="repro"):
    """LDC config at the requested scale preset."""
    return preset(LDCConfig, scale)


def annular_ring_config(scale="repro"):
    """Annular-ring config at the requested scale preset."""
    return preset(AnnularRingConfig, scale)


def burgers_config(scale="repro"):
    """Burgers-front config at the requested scale preset."""
    return preset(BurgersConfig, scale)


def poisson3d_config(scale="repro"):
    """3-D Poisson config at the requested scale preset."""
    return preset(Poisson3DConfig, scale)


def advection_diffusion_config(scale="repro"):
    """Advection-diffusion config at the requested scale preset."""
    return preset(AdvectionDiffusionConfig, scale)


def inverse_burgers_config(scale="repro"):
    """Inverse-viscosity config at the requested scale preset."""
    return preset(InverseBurgersConfig, scale)


def ns3d_config(scale="repro"):
    """3-D Navier-Stokes config at the requested scale preset."""
    return preset(NS3DConfig, scale)
