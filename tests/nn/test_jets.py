"""Forward jets through FullyConnected against the reverse-mode oracle.

For every activation rule and net depth, the jet's first derivatives and
its mixed and unmixed second derivatives must equal the reverse-mode
derivatives ``Fields`` computes for a net without a ``jet`` method, within
float32 tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import op_name, record_tape
from repro.nn import ACTIVATIONS, FullyConnected
from repro.pde import Fields

NAMES = ("x", "y", "t")
OUTPUTS = ("a", "b")


class ReverseOnly:
    """A net without a ``jet`` method: Fields differentiates it in reverse."""

    def __init__(self, net):
        self.net = net

    def __call__(self, x):
        return self.net(x)


def _net(activation, n_in, seed, depth=2, dtype=np.float32):
    return FullyConnected(n_in, len(OUTPUTS), width=8, depth=depth,
                          activation=activation,
                          rng=np.random.default_rng(seed), dtype=dtype)


def _both(net, features):
    names = NAMES[:features.shape[1]]
    jet = Fields.evaluate(net, features, OUTPUTS, spatial_names=names)
    rev = Fields.evaluate(ReverseOnly(net), features, OUTPUTS,
                          spatial_names=names)
    return jet, rev, names


def _close(actual, expected):
    actual, expected = actual.numpy(), expected.numpy()
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=1e-4,
                               atol=1e-5 * scale)


@settings(max_examples=40, deadline=None)
@given(activation=st.sampled_from(sorted(ACTIVATIONS)),
       depth=st.integers(1, 3),
       n_in=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_jet_derivatives_match_reverse_mode(activation, depth, n_in, seed):
    rng = np.random.default_rng(seed + 1)
    features = rng.uniform(-1.0, 1.0, (6, n_in)).astype(np.float32)
    jet, rev, names = _both(_net(activation, n_in, seed, depth), features)
    for out in OUTPUTS:
        _close(jet.get(out), rev.get(out))
        for i, a in enumerate(names):
            _close(jet.d(out, a), rev.d(out, a))
            for b in names[i:]:
                _close(jet.d2(out, a, b), rev.d2(out, a, b))
                _close(jet.d2(out, b, a), jet.d2(out, a, b))


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_jet_value_is_the_forward_pass_bit_for_bit(activation):
    net = _net(activation, 2, seed=3)
    features = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    fields = Fields.evaluate(net, features.astype(np.float32), OUTPUTS)
    plain = net(Fields.from_features(features.astype(np.float32))
                .input_tensor())
    np.testing.assert_array_equal(fields.get("a").numpy(),
                                  plain.numpy()[:, 0:1])


def test_directions_are_built_only_on_demand():
    net = _net("tanh", 2, seed=0)     # 2 hidden layers + head
    features = np.zeros((4, 2), dtype=np.float32)

    def matmuls(request):
        with record_tape() as tape:
            request(Fields.evaluate(net, features, OUTPUTS))
        return sum(op_name(node) == "matmul" for node in tape.nodes)

    assert matmuls(lambda f: f.get("a")) == 3
    # a tangent pass: layer 1 reads its weight row, then 2 matmuls
    assert matmuls(lambda f: f.d("a", "x")) == 5
    # one pass per coordinate, shared by every output column
    assert matmuls(lambda f: (f.d("a", "x"), f.d("b", "x"))) == 5
    # u_xx needs the x tangents below the head (1 matmul) and its own pass
    # (2); neither u_x's head matmul nor any y direction is built
    assert matmuls(lambda f: f.d2("a", "x", "x")) == 6
    assert matmuls(lambda f: (f.d2("a", "x", "x"), f.d("a", "y"))) == 8


def test_reverse_passes_through_a_jet_stay_exact():
    """A reverse derivative of a jet-derived quantity (flux terms under
    ``full_diffusion``) equals the jet's own second derivative."""
    net = _net("silu", 2, seed=5)
    features = np.random.default_rng(1).uniform(-1, 1, (7, 2))
    fields = Fields.evaluate(net, features.astype(np.float32), OUTPUTS)
    fields.register("a_x", fields.d("a", "x"))
    _close(fields.d("a_x", "y"), fields.d2("a", "x", "y"))
    _close(fields.d("a_x", "x"), fields.d2("a", "x", "x"))
