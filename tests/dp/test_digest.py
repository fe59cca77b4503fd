"""Pinned digests of the data-parallel trajectory.

The parity matrix compares ``world_size=1`` against ``world_size>1``
through the same code, so a change that moves both sides equally would
still pass it.  These digests pin the ``world_size=1`` numerics
themselves: a sha256 over the recorded history (steps, losses, errors,
probe points, all as exact float hex) and the final network weight bytes.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.dp import run_dp
from repro.experiments import (
    advection_diffusion_config, annular_ring_config, burgers_config,
    inverse_burgers_config, ldc_config, ns3d_config, poisson3d_config,
)

CONFIGS = {
    "ldc": ldc_config,
    "annular_ring": annular_ring_config,
    "burgers": burgers_config,
    "poisson3d": poisson3d_config,
    "advection_diffusion": advection_diffusion_config,
    "inverse_burgers": inverse_burgers_config,
    "ns3d": ns3d_config,
}
STEPS = 8
N_INTERIOR = 320
BATCH = 64
#: short cadences so the pinned steps cover score refreshes, a cluster
#: rebuild, several validations and a history row per step
CADENCE = dict(tau_e=2, tau_G=5, validate_every=3, record_every=1)

#: ``(problem, sampler, compile) -> sha256`` of the W=1 trajectory
DIGESTS = {
    ("advection_diffusion", "sgm", False):
        "4ea5b309c30267e9c4f1b18fc4f52b372616fca9ca980f0eb4c3f047d9ffcf4b",
    ("annular_ring", "sgm", False):
        "9ae89accb6b51e7443b057246fd1162480ba42fc3ce936ed92572132cd39ba3d",
    ("burgers", "sgm", False):
        "31499320055534eb7ccdd47a7c6aa89e8791cd03ed4a12c59bae7affe4dc5b4c",
    ("inverse_burgers", "sgm", False):
        "c0fe46a55d5edae44c48de03ddedc29940e20b99080eaab3c0e914cc77ea9672",
    ("ldc", "sgm", False):
        "17ec7042d7f9143683387900090d794385653bf5eeb7c3b19276c3a2b40540c3",
    ("ns3d", "sgm", False):
        "6eab14cbc8d42206914ec41dedddf1c453ffd42f582b35c2700a839ad9d48c20",
    ("poisson3d", "sgm", False):
        "b08c1f26a25baf0f2d132d71632cd2576c006d827f697652bed7feb29b1d10d9",
    ("burgers", "uniform", False):
        "96c16f4eb4d7178bbaeedbce9360be8ece244f5e02ddc9a4b434cf695bb19954",
    ("burgers", "mis", False):
        "e16132e94fed6ffe1c8abe626bda3397e5f7f9a7962c3d69f73c00f635ccd203",
    ("burgers", "sgm", True):
        "31499320055534eb7ccdd47a7c6aa89e8791cd03ed4a12c59bae7affe4dc5b4c",
}


def trajectory_digest(result):
    """sha256 of a run's history and final weights, bit-exact."""
    history = result.history
    record = {
        "steps": [int(s) for s in history.steps],
        "losses": [float(x).hex() for x in history.losses],
        "errors": {var: [float(x).hex() for x in vals]
                   for var, vals in sorted(history.errors.items())},
        "probe_points": [int(p) for p in history.probe_points],
    }
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    state = result.net.state_dict()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("problem, sampler, compile", sorted(DIGESTS))
def test_single_rank_trajectory_matches_pinned_digest(problem, sampler,
                                                      compile):
    config = dataclasses.replace(CONFIGS[problem]("smoke"), **CADENCE)
    result = run_dp(problem, config, sampler=sampler, steps=STEPS,
                    n_interior=N_INTERIOR, batch_size=BATCH, world_size=1,
                    compile=compile)
    assert trajectory_digest(result) == DIGESTS[(problem, sampler, compile)]
