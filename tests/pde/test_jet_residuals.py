"""Residuals from forward jets equal the reverse-mode oracle on every
registered problem.

Each constraint of each problem is evaluated twice on the same batch: with
the network itself (``Fields`` answers derivatives from its jet) and with a
wrapper that hides the ``jet`` method (``Fields`` falls back to reverse
mode).  The residuals must agree within float32 tolerance — for interior
PDE residuals, boundary and data terms, validator-derived fields, and the
flux-form diffusion that runs reverse passes through the jet graph.
"""

import dataclasses

import numpy as np
import pytest

import repro.api.problems  # noqa: F401  (populate the registry)
from repro.api.problems import build_problem
from repro.api.registry import list_problems, problem_registry
from repro.nn import FullyConnected
from repro.pde import ZeroEquationTurbulence
from repro.training import PointwiseValidator


class ReverseOnly:
    """A net without a ``jet`` method: Fields differentiates it in reverse."""

    def __init__(self, net):
        self.net = net

    def __call__(self, x):
        return self.net(x)


def _problem(name, **overrides):
    config = problem_registry.get(name).config_factory("smoke")
    config = dataclasses.replace(config, **overrides)
    prob = build_problem(name, config, 64, np.random.default_rng(0))
    for constraint in prob.constraints:
        constraint.set_dtype(np.float32)
    net = FullyConnected(prob.in_features, prob.out_features, width=16,
                         depth=3, activation=config.network.activation,
                         rng=np.random.default_rng(1), dtype=np.float32)
    return prob, net


def _assert_close(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=1e-4,
                               atol=2e-5 * scale)


def _check_constraints(prob, net):
    for constraint in prob.constraints:
        indices = np.arange(min(24, constraint.n_points))
        jet, jet_weight = constraint.residuals(net, indices)
        rev, rev_weight = constraint.residuals(ReverseOnly(net), indices)
        assert sorted(jet) == sorted(rev)
        for name in jet:
            assert jet[name].dtype == np.float32, (constraint.name, name)
            _assert_close(jet[name].numpy(), rev[name].numpy())
        assert (jet_weight is None) == (rev_weight is None)


@pytest.mark.parametrize("problem", list_problems())
def test_jet_residuals_match_reverse_mode(problem):
    prob, net = _problem(problem)
    kinds = {type(c).__name__ for c in prob.constraints}
    assert "InteriorConstraint" in kinds and len(kinds) > 1
    _check_constraints(prob, net)


def test_flux_form_diffusion_runs_reverse_through_the_jets():
    """``full_diffusion`` differentiates ``nu_t * grad u`` in reverse mode,
    through jet-built first derivatives (third-order terms)."""
    prob, net = _problem("ldc", full_diffusion=True)
    _check_constraints(prob, net)


def test_validator_derived_fields_match_reverse_mode():
    rng = np.random.default_rng(2)
    points = rng.uniform(0.05, 0.95, (40, 2))
    sdf = np.minimum(points, 1.0 - points).min(axis=1, keepdims=True)
    closure = ZeroEquationTurbulence(max_distance=0.5)
    validator = PointwiseValidator(
        "ldc", points, {"u": np.zeros(40), "nu": np.zeros(40)},
        ("u", "v", "p"), derived={"nu": closure.nu_t}, sdf=sdf)
    _, net = _problem("ldc")
    jet = validator._predict(net, slice(None))
    rev = validator._predict(ReverseOnly(net), slice(None))
    for var in ("u", "nu"):
        _assert_close(jet[var], rev[var])
    assert np.abs(jet["nu"]).max() > 0
