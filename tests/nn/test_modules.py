"""Module system, layers, and MLP behaviour."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradients
from repro.nn import ACTIVATIONS, FullyConnected, Linear, Module, Parameter


def test_linear_shapes_and_values():
    rng = np.random.default_rng(0)
    layer = Linear(3, 5, rng=rng)
    x = Tensor(rng.normal(size=(7, 3)))
    out = layer(x)
    assert out.shape == (7, 5)
    expected = x.numpy() @ layer.weight.numpy() + layer.bias.numpy()
    assert np.allclose(out.numpy(), expected)


def test_linear_gradients_flow_to_parameters():
    rng = np.random.default_rng(1)
    layer = Linear(2, 2, rng=rng)
    x = Tensor(rng.normal(size=(4, 2)))
    loss = (layer(x) ** 2.0).mean()
    grads = gradients(loss, layer.parameters())
    assert len(grads) == 2
    assert grads[0].shape == layer.weight.shape
    assert grads[1].shape == layer.bias.shape
    assert np.any(grads[0].numpy() != 0.0)


def test_parameter_discovery_order_and_names():
    rng = np.random.default_rng(2)
    net = FullyConnected(2, 1, width=4, depth=2, rng=rng)
    names = [name for name, _ in net.named_parameters()]
    assert names == [
        "layers.0.weight", "layers.0.bias",
        "layers.1.weight", "layers.1.bias",
        "head.weight", "head.bias",
    ]


def test_num_parameters_matches_architecture():
    net = FullyConnected(2, 3, width=8, depth=2, rng=np.random.default_rng(0))
    expected = (2 * 8 + 8) + (8 * 8 + 8) + (8 * 3 + 3)
    assert net.num_parameters() == expected


def test_state_dict_roundtrip():
    rng = np.random.default_rng(3)
    net = FullyConnected(2, 1, width=4, depth=1, rng=rng)
    state = net.state_dict()
    x = Tensor(rng.normal(size=(5, 2)))
    before = net(x).numpy().copy()
    for p in net.parameters():
        p.data += 1.0
    assert not np.allclose(net(x).numpy(), before)
    net.load_state_dict(state)
    assert np.allclose(net(x).numpy(), before)


def test_load_state_dict_rejects_bad_keys():
    net = FullyConnected(2, 1, width=4, depth=1, rng=np.random.default_rng(0))
    with pytest.raises(KeyError):
        net.load_state_dict({"nope": np.zeros(3)})


def test_load_state_dict_rejects_bad_shape():
    net = FullyConnected(2, 1, width=4, depth=1, rng=np.random.default_rng(0))
    state = net.state_dict()
    state["head.weight"] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        net.load_state_dict(state)


def test_activation_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown activation 'nope'.*silu"):
        FullyConnected(2, 1, width=4, depth=1, activation="nope")


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_all_activations_evaluate(name):
    x = Tensor(np.linspace(-1, 1, 5))
    out = ACTIVATIONS[name](x)
    assert out.shape == x.shape
    assert np.all(np.isfinite(out.numpy()))


def test_mlp_rejects_zero_depth():
    with pytest.raises(ValueError):
        FullyConnected(2, 1, width=4, depth=0)


def test_mlp_deterministic_under_seed():
    a = FullyConnected(2, 1, width=4, depth=2, rng=np.random.default_rng(42))
    b = FullyConnected(2, 1, width=4, depth=2, rng=np.random.default_rng(42))
    x = Tensor(np.random.default_rng(0).uniform(size=(5, 2)))
    assert np.allclose(a(x).numpy(), b(x).numpy())


def test_module_forward_is_abstract():
    with pytest.raises(NotImplementedError):
        Module()(1)


def test_xavier_bound():
    from repro.nn import xavier_uniform
    w = xavier_uniform(np.random.default_rng(0), 100, 50)
    bound = np.sqrt(6.0 / 150)
    assert w.shape == (100, 50)
    assert np.max(np.abs(w)) <= bound


def test_parameter_requires_grad():
    p = Parameter(np.zeros(3))
    assert p.requires_grad
